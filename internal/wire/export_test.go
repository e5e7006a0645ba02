package wire

// BulkTable is the string-table size past which a frame's strings
// skip the decoder's cache.
const BulkTable = bulkTable
