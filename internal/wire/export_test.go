package wire

// BulkTable is the string-table size past which a frame's strings
// skip the decoder's cache.
const BulkTable = bulkTable

// CachedLists reports how many CDN lists and bitrate ladders the
// decoder's list caches hold, and how many elements they come to.
func (d *Decoder) CachedLists() (lists, elems int) {
	for i := range d.cdnLists {
		for _, l := range d.cdnLists[i].lists {
			lists, elems = lists+min(len(l), 1), elems+len(l)
		}
	}
	for i := range d.brLists {
		for _, l := range d.brLists[i].lists {
			lists, elems = lists+min(len(l), 1), elems+len(l)
		}
	}
	return lists, elems
}

// ListSlots is how many lists of each kind the caches can hold.
const ListSlots = listSets * listWays
