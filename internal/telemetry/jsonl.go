package telemetry

import (
	"io"

	"vmp/internal/wire"
)

// MaxLineBytes is the largest JSONL line the wire-level ingest paths
// accept; it lives in internal/wire with the rest of the codecs and
// is re-exported here for the storage-side callers.
const MaxLineBytes = wire.MaxLineBytes

// ScanJSONL reads JSON-lines view records from r with the module-wide
// MaxLineBytes line cap. Blank lines are skipped; lines that fail to
// parse or lack a publisher are counted in bad, not returned. A
// non-nil err (an oversized line or a transport read error) means the
// stream was cut short: batch holds the records scanned up to that
// point and the caller decides whether to keep them.
func ScanJSONL(r io.Reader) (batch []ViewRecord, bad int, err error) {
	return wire.ScanJSONL(r)
}

// EncodeJSONL writes records to w as JSON lines.
func EncodeJSONL(w io.Writer, records []ViewRecord) error {
	return wire.EncodeJSONL(w, records)
}
