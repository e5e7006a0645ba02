// Package wire implements the telemetry ingest wire formats: the
// JSON-lines encoding publishers' monitoring libraries have always
// reported in, and a compact binary batch encoding that closes the
// gap between the engine's in-process admission rate and what the
// HTTP ingest path can parse.
//
// A binary stream is a sequence of length-prefixed frames. Each frame
// carries a fixed header (magic, version, flags, record count), one
// interned string table shipped once per frame, and column-major
// varint-coded record fields: every string field is a small table
// index, timestamps are zigzag-delta-coded, booleans are bitsets, and
// floats are varint-coded bit patterns. The decoder parses a frame
// straight into the columnar []record.ViewRecord layout with no
// intermediate per-record structs and no per-field allocations,
// reusing its scratch buffers across batches; see Decoder for the
// buffer-ownership contract. DESIGN.md §10 specifies the layout.
//
// JSON lines decode through the same Decoder under the same contract
// (Decoder.ScanJSONL): a line parser specialized to the ViewRecord
// schema takes the shape encoding/json itself emits, and every other
// line goes to encoding/json, which stays the definition of what a
// line means.
//
// Transport negotiation lives here too, both halves of it. DecodeBody
// is the server's: it picks the decoder from Content-Type
// (application/vnd.vmp.batch versus the JSONL fallback), transparently
// decompresses Content-Encoding: gzip, and cuts a body off at
// MaxBodyBytes. Client is the sender's: it encodes a batch once, stamps
// the headers DecodeBody reads, and resends the same bytes after each
// 429's Retry-After — the one ingest client, under vmpgen's load
// driver and telemetry.Sensor alike.
package wire

import "errors"

// ContentTypeBinary is the negotiated media type of the binary batch
// encoding. Anything else falls back to JSONL or is rejected with
// ErrUnsupportedMedia; see DecodeBody.
const ContentTypeBinary = "application/vnd.vmp.batch"

// ContentTypeJSONL is the canonical media type of the JSON-lines
// encoding.
const ContentTypeJSONL = "application/x-ndjson"

// ErrUnsupportedMedia reports a Content-Type or Content-Encoding the
// ingest path does not speak; HTTP handlers map it to 415 before any
// body bytes are read.
var ErrUnsupportedMedia = errors.New("wire: unsupported media type")

// Frame header constants. A frame on the wire is a 4-byte little-
// endian payload length followed by the payload itself; the payload
// opens with magic, version, and flags bytes plus a varint record
// count. Version bumps when the column layout changes; decoders
// reject versions and flag bits they do not know, so old decoders
// fail loudly on new frames instead of misparsing them.
const (
	frameMagic0 = 'V'
	frameMagic1 = 'B'

	// Version is the binary frame layout version this package encodes
	// and decodes.
	Version = 1

	// MaxFrameBytes bounds a single frame's payload. The decoder
	// rejects larger length prefixes before allocating, so a hostile
	// or corrupt prefix cannot trigger an over-allocation.
	MaxFrameBytes = 64 << 20
)
