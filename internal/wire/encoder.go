package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"vmp/internal/telemetry/record"
)

// Encoder writes batches of view records as binary frames. It owns an
// intern index and payload/ID scratch buffers that are reused across
// Encode calls, so a steady encode loop allocates only when a batch
// outgrows every previous one. An Encoder is not safe for concurrent
// use; give each goroutine its own.
//
// Encoding is deterministic: the string table is built in first-
// appearance order over a fixed field walk, so the same record slice
// always produces byte-identical frames — the property the canonical
// round-trip tests pin.
type Encoder struct {
	index   map[string]uint64
	names   []string // string table scratch, rebuilt per frame
	ids     []uint64 // N×numStringFields interned IDs, record-major
	payload []byte   // payload buffer reused across Encode calls
	lenbuf  [4]byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{index: make(map[string]uint64)}
}

// intern returns the table ID for s, adding it on first sight.
func (e *Encoder) intern(s string) uint64 {
	id, ok := e.index[s]
	if !ok {
		id = uint64(len(e.names))
		e.index[s] = id
		e.names = append(e.names, s)
	}
	return id
}

// stringFields appends the values of every single-valued string field
// of r, in the fixed column order the frame layout defines. Keeping
// the walk in one place keeps the encoder's intern pass and the
// decoder's column order from drifting apart.
func stringFields(r *record.ViewRecord, dst []string) []string {
	return append(dst,
		r.Publisher, r.VideoID, r.URL, r.Device, r.OS, r.UserAgent,
		r.SDK, r.SDKVersion, r.ISP, r.ConnType, r.Geo, r.ContentID, r.Owner)
}

// numStringFields is the number of single-valued string columns; it
// must match stringFields.
const numStringFields = 13

// zigzag maps a signed value to an unsigned one with small absolute
// values staying small, the standard varint-friendly transform.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// floatBits maps a float to a varint-friendly pattern: byte-reversing
// IEEE 754 bits moves the sign/exponent bytes — the ones that are
// almost always populated — to the low end and the usually-zero
// mantissa tail to the high end, so typical telemetry values varint-
// code in 3–5 bytes instead of 9.
func floatBits(f float64) uint64 { return bits.ReverseBytes64(math.Float64bits(f)) }

// unfloatBits inverts floatBits.
func unfloatBits(u uint64) float64 { return math.Float64frombits(bits.ReverseBytes64(u)) }

// AppendFrame appends one frame holding recs to dst and returns the
// extended slice. An empty batch encodes to a valid empty frame. It
// fails only if the encoded payload would exceed MaxFrameBytes —
// split the batch and encode multiple frames instead; the decode side
// accepts any number of frames per stream.
func (e *Encoder) AppendFrame(dst []byte, recs []record.ViewRecord) ([]byte, error) {
	if len(recs) > MaxFrameRecords {
		return dst, fmt.Errorf("wire: %d records exceed MaxFrameRecords %d; split the batch", len(recs), MaxFrameRecords)
	}
	// Pass 1: build the string table in first-appearance order and
	// stash every single-valued field's ID so the column-major emit
	// pass below doesn't re-walk the structs per column.
	clear(e.index)
	e.names = e.names[:0]
	e.ids = e.ids[:0]
	var fieldsArr [numStringFields]string
	for i := range recs {
		r := &recs[i]
		for _, s := range stringFields(r, fieldsArr[:0]) {
			e.ids = append(e.ids, e.intern(s))
		}
		for _, c := range r.CDNs {
			e.intern(c)
		}
	}

	// Pass 2: emit the payload into the scratch buffer.
	p := e.payload[:0]
	p = append(p, frameMagic0, frameMagic1, Version, 0)
	p = binary.AppendUvarint(p, uint64(len(recs)))
	p = binary.AppendUvarint(p, uint64(len(e.names)))
	for _, s := range e.names {
		p = binary.AppendUvarint(p, uint64(len(s)))
		p = append(p, s...)
	}
	// Timestamps: absolute unix-nanos for the first record, zigzag
	// deltas after it. Canonically sorted batches are timestamp-sorted,
	// so deltas are small non-negative values.
	prev := int64(0)
	for i := range recs {
		ns := recs[i].Timestamp.UnixNano()
		p = binary.AppendUvarint(p, zigzag(ns-prev))
		prev = ns
	}
	// Single-valued string columns, column-major.
	for f := 0; f < numStringFields; f++ {
		for i := range recs {
			p = binary.AppendUvarint(p, e.ids[i*numStringFields+f])
		}
	}
	// CDN lists.
	for i := range recs {
		cdns := recs[i].CDNs
		p = binary.AppendUvarint(p, uint64(len(cdns)))
		for _, c := range cdns {
			p = binary.AppendUvarint(p, e.index[c])
		}
	}
	// Bitrate ladders.
	for i := range recs {
		brs := recs[i].Bitrates
		p = binary.AppendUvarint(p, uint64(len(brs)))
		for _, b := range brs {
			p = binary.AppendUvarint(p, zigzag(int64(b)))
		}
	}
	// Boolean bitset columns.
	p = appendBitset(p, recs, func(r *record.ViewRecord) bool { return r.Live })
	p = appendBitset(p, recs, func(r *record.ViewRecord) bool { return r.Syndicated })
	p = appendBitset(p, recs, func(r *record.ViewRecord) bool { return r.Failed })
	// Float columns.
	for i := range recs {
		p = binary.AppendUvarint(p, floatBits(recs[i].ViewSec))
	}
	for i := range recs {
		p = binary.AppendUvarint(p, floatBits(recs[i].AvgBitrateKbps))
	}
	for i := range recs {
		p = binary.AppendUvarint(p, floatBits(recs[i].RebufferSec))
	}
	for i := range recs {
		p = binary.AppendUvarint(p, floatBits(recs[i].Weight))
	}
	e.payload = p
	if len(p) > MaxFrameBytes {
		return dst, fmt.Errorf("wire: frame payload %d bytes exceeds MaxFrameBytes %d; split the batch", len(p), MaxFrameBytes)
	}

	binary.LittleEndian.PutUint32(e.lenbuf[:], uint32(len(p)))
	dst = append(dst, e.lenbuf[:]...)
	return append(dst, p...), nil
}

// appendBitset packs one boolean per record into a ceil(n/8)-byte
// bitset, LSB-first.
func appendBitset(p []byte, recs []record.ViewRecord, get func(*record.ViewRecord) bool) []byte {
	var cur byte
	for i := range recs {
		if get(&recs[i]) {
			cur |= 1 << (uint(i) % 8)
		}
		if i%8 == 7 {
			p = append(p, cur)
			cur = 0
		}
	}
	if len(recs)%8 != 0 {
		p = append(p, cur)
	}
	return p
}
