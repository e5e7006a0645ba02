package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"vmp/internal/telemetry/record"
)

// MaxFrameRecords bounds the record count a single frame may declare.
// Together with MaxFrameBytes and the per-record minimum-size check it
// keeps a hostile count varint from provoking an allocation that is
// wildly out of proportion to the bytes actually sent.
const MaxFrameRecords = 1 << 20

// errTruncated reports a stream that ended mid-frame.
var errTruncated = errors.New("wire: truncated frame")

// Decoder parses ingest bodies — binary frame streams (DecodeAll) and
// JSON lines (ScanJSONL) — straight into the columnar
// []record.ViewRecord layout: no intermediate per-record structs, no
// per-field allocations. The record slice, body and line buffers, and
// table and list scratch are reused across calls; distinct string
// values, CDN lists and bitrate ladders are interned in persistent
// caches, so a steady decode loop over similar batches allocates
// nothing per record, in either encoding. A frame whose string table is
// past bulkTable (a checkpoint's) adds one allocation: its table,
// copied whole.
//
// Ownership contract: the slice a decode returns (and the structs in
// it), like Frames, is valid only until the next DecodeAll or ScanJSONL
// call on the same decoder. The ingest path copies records (and the WAL
// frames) out synchronously, which is what makes the reuse safe. What
// a copied record still shares with the decoder is never rewritten:
// interned strings are immutable, and so are interned lists, each
// capacity-capped (len == cap), so an append to one copies it. Records
// of different calls share a list when they hold equal ones. A Decoder
// is not safe for concurrent use; give each request one of its own.
type Decoder struct {
	body   []byte              // reused buffer DecodeAll reads the stream into, length prefixes included
	frames []byte              // body after a DecodeAll that succeeded; nil after any other decode
	line   []byte              // reused JSONL line buffer, valid until the next ScanJSONL
	recs   []record.ViewRecord // reused record slice handed to callers per the ownership contract
	names  []string            // per-frame string table scratch
	intern *[internSets]internSet
	lenbuf [4]byte

	// A list is read into scratch and then interned: what a record gets
	// is the cache's copy, never the scratch.
	cdnBuf   []string
	brBuf    []int
	cdnLists *listCache[string]
	brLists  *listCache[int]
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder {
	return &Decoder{intern: new([internSets]internSet), cdnLists: new(listCache[string]), brLists: new(listCache[int])}
}

// The persistent string cache is set-associative: internSets sets of
// internWays slots, each slot a string and a tag from its hash. Its
// size is fixed, so a stream of unique strings cannot grow the decoder
// and there is nothing to clear. Which strings share a set depends on
// the bytes alone (FNV-1a, fixed basis), so it is the same on every
// run.
const (
	internSets = 1 << 13
	internWays = 4

	// bulkTable is the string-table size past which a frame does not
	// use the cache: a quarter of its slots. Only a checkpoint's
	// 8,192-record frames get there; a table that large has already
	// deduplicated its strings and would mostly miss and evict.
	bulkTable = internSets * internWays / 4
)

// internSet is one set of the cache, its ways in recency order: a hit
// moves to way 0, a miss enters there and the last way falls out.
type internSet struct {
	tags [internWays]uint32
	strs [internWays]string
}

// internBytes returns the canonical string for b, allocating only when
// b is not in the cache.
func (d *Decoder) internBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	// The low bits index the set: FNV-1a's last multiply carries a
	// byte's change upward only, so its high bits barely tell apart
	// strings that differ at the end ("vid-0001", "vid-0002").
	set, tag := &d.intern[h%internSets], uint32(h>>32)
	w := 0
	for ; w < internWays; w++ {
		if set.tags[w] == tag && set.strs[w] == string(b) {
			break
		}
	}
	var s string
	if w < internWays {
		s = set.strs[w]
	} else {
		s, w = string(b), internWays-1
	}
	copy(set.tags[1:w+1], set.tags[:w])
	copy(set.strs[1:w+1], set.strs[:w])
	set.tags[0], set.strs[0] = tag, s
	return s
}

// FNV-1a (64-bit) parameters, as in hash/fnv.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// The list caches intern CDN lists and bitrate ladders as the string
// cache interns strings: listSets sets of listWays slots, a slot a list
// and a tag from its hash, fixed in size and chosen by the contents
// alone. The ingest datasets hold about 130 distinct lists of each
// kind, so a steady stream hits; a stream of unique ladders evicts and
// cannot grow the decoder.
const (
	listSets = 1 << 8
	listWays = 4
)

// listSet is one set of a list cache, its ways in recency order.
type listSet[T comparable] struct {
	tags  [listWays]uint32
	lists [listWays][]T
}

type listCache[T comparable] [listSets]listSet[T]

// intern returns the cached list equal to l, which is scratch and not
// empty, and h its hash; on a miss it caches and returns a copy of
// exactly l's length. The result is shared with every record that got
// an equal list from this cache, so nothing may write it, and its
// capacity is its length, so an append copies it.
func (c *listCache[T]) intern(l []T, h uint64) []T {
	// Finish the hash: the element-wise FNV rounds leave the low bits,
	// which pick the set, blind to an element's high bits.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	set, tag := &c[h%listSets], uint32(h>>32)
	w := 0
	for ; w < listWays; w++ {
		if set.tags[w] == tag && slices.Equal(set.lists[w], l) {
			break
		}
	}
	var list []T
	if w < listWays {
		list = set.lists[w]
	} else {
		list, w = slices.Clip(slices.Clone(l)), listWays-1
	}
	copy(set.tags[1:w+1], set.tags[:w])
	copy(set.lists[1:w+1], set.lists[:w])
	set.tags[0], set.lists[0] = tag, list
	return list
}

// cdnList interns a CDN list that is not empty. An empty one is the
// caller's to give: nil, or an empty list that is not nil, which
// encoding/json tells apart.
func (d *Decoder) cdnList(l []string) []string {
	h := uint64(fnvOffset)
	for _, s := range l {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime
		}
		h = (h ^ 0xff) * fnvPrime // no UTF-8 string holds 0xff: ["ab"] and ["a","b"] differ
	}
	return d.cdnLists.intern(l, h)
}

// bitrateList is cdnList for a bitrate ladder.
func (d *Decoder) bitrateList(l []int) []int {
	h := uint64(fnvOffset)
	for _, v := range l {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return d.brLists.intern(l, h)
}

// DecodeAll reads every frame from r and returns the decoded records.
// The returned slice is valid until the decoder's next decode; see the
// type comment. Any framing or layout violation — a truncated frame,
// an unknown version or flag, an out-of-range table ID, trailing
// bytes — fails the whole stream: ingest handlers reject the batch so
// a retry is exact.
func (d *Decoder) DecodeAll(r io.Reader) ([]record.ViewRecord, error) {
	d.recs, d.body, d.frames = d.recs[:0], d.body[:0], nil
	for {
		if _, err := io.ReadFull(r, d.lenbuf[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("wire: reading frame length: %w", err)
		}
		n := binary.LittleEndian.Uint32(d.lenbuf[:])
		if n > MaxFrameBytes {
			return nil, fmt.Errorf("wire: frame payload %d bytes exceeds MaxFrameBytes %d", n, MaxFrameBytes)
		}
		// Frames land back to back in body, the one copy made.
		off := len(d.body)
		if n <= exactGrowBytes {
			d.body = slices.Grow(d.body, 4+int(n))
		}
		d.body = append(d.body, d.lenbuf[:]...)
		if err := d.readPayload(r, int(n)); err != nil {
			return nil, fmt.Errorf("%w: payload short of %d bytes: %w", errTruncated, n, err)
		}
		if err := d.decodeFrame(d.body[off+4:]); err != nil {
			return nil, err
		}
	}
	d.frames = d.body
	return d.recs, nil
}

// exactGrowBytes is the longest declared frame DecodeAll makes room
// for in one step before reading it. Every frame a client or the WAL
// writes is shorter: a 500-record POST, an 8,192-record checkpoint of
// about 1 MB. Room for a longer one grows as its bytes arrive, so a
// length prefix the stream does not back costs what was sent, not the
// up to MaxFrameBytes it declared.
const exactGrowBytes = 4 << 20

// readPayload appends n bytes read from r to body, doubling body's
// room whenever it runs out.
func (d *Decoder) readPayload(r io.Reader, n int) error {
	start := len(d.body)
	for want := start + n; len(d.body) < want; {
		if len(d.body) == cap(d.body) {
			d.body = slices.Grow(d.body, min(want-len(d.body), max(len(d.body), 64<<10)))
		}
		got, err := io.ReadFull(r, d.body[len(d.body):min(cap(d.body), want)])
		d.body = d.body[:len(d.body)+got]
		if err == io.EOF && len(d.body) > start {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Frames returns the stream the last decode read, length prefixes
// included — nil unless that was a DecodeAll that succeeded. A WAL logs
// it for the records returned, so what DecodeAll accepts is log format.
func (d *Decoder) Frames() []byte { return d.frames }

// frameReader is a bounds-checked cursor over one frame payload.
type frameReader struct {
	b   []byte
	pos int
}

func (fr *frameReader) remaining() int { return len(fr.b) - fr.pos }

func (fr *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(fr.b[fr.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", errTruncated, fr.pos)
	}
	fr.pos += n
	return v, nil
}

func (fr *frameReader) take(n int) ([]byte, error) {
	if n < 0 || fr.remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d, have %d", errTruncated, n, fr.pos, fr.remaining())
	}
	b := fr.b[fr.pos : fr.pos+n]
	fr.pos += n
	return b, nil
}

// decodeFrame parses one payload, appending its records to d.recs.
func (d *Decoder) decodeFrame(payload []byte) error {
	fr := &frameReader{b: payload} // cursor stays on the stack (escape analysis; pinned by TestDecodeSteadyStateAllocs)
	hdr, err := fr.take(4)
	if err != nil {
		return err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return fmt.Errorf("wire: bad frame magic %q", hdr[:2])
	}
	if hdr[2] != Version {
		return fmt.Errorf("wire: unknown frame version %d (decoder speaks %d)", hdr[2], Version)
	}
	if hdr[3] != 0 {
		return fmt.Errorf("wire: unknown frame flags 0x%02x", hdr[3])
	}
	count64, err := fr.uvarint()
	if err != nil {
		return err
	}
	if count64 > MaxFrameRecords {
		return fmt.Errorf("wire: frame declares %d records, cap is %d", count64, MaxFrameRecords)
	}
	n := int(count64)
	// A record costs at least one byte in each varint column plus its
	// bitset bits; reject counts the remaining bytes cannot possibly
	// hold before allocating anything proportional to them.
	minBytes := n*(1+numStringFields+1+1+4) + 3*((n+7)/8)
	if fr.remaining() < minBytes {
		return fmt.Errorf("%w: %d records need at least %d payload bytes, have %d", errTruncated, n, minBytes, fr.remaining())
	}

	// String table.
	tcount64, err := fr.uvarint()
	if err != nil {
		return err
	}
	if tcount64 > uint64(fr.remaining()) {
		return fmt.Errorf("%w: table declares %d entries with %d bytes left", errTruncated, tcount64, fr.remaining())
	}
	tcount := int(tcount64)
	names := d.names[:0]
	tstart := fr.pos
	bulk := tcount > bulkTable
	for i := 0; i < tcount; i++ {
		l, err := fr.uvarint()
		if err != nil {
			return err
		}
		if l > uint64(fr.remaining()) {
			return fmt.Errorf("%w: table entry %d declares %d bytes with %d left", errTruncated, i, l, fr.remaining())
		}
		b, err := fr.take(int(l))
		if err != nil {
			return err
		}
		if !bulk {
			names = append(names, d.internBytes(b))
		}
	}
	if bulk {
		names = tableOnce(fr.b[tstart:fr.pos], names)
	}
	d.names = names

	// Grow the output slice; all fields of every new slot are assigned
	// below, so reused slots need no zeroing.
	base := len(d.recs)
	if cap(d.recs)-base < n {
		grown := make([]record.ViewRecord, base, base+n)
		copy(grown, d.recs)
		d.recs = grown
	}
	d.recs = d.recs[:base+n]
	out := d.recs[base:]

	// Timestamp column.
	prev := int64(0)
	for i := 0; i < n; i++ {
		u, err := fr.uvarint()
		if err != nil {
			return err
		}
		prev += unzigzag(u)
		out[i].Timestamp = time.Unix(0, prev).UTC()
	}
	// Single-valued string columns.
	for f := 0; f < numStringFields; f++ {
		for i := 0; i < n; i++ {
			id, err := fr.uvarint()
			if err != nil {
				return err
			}
			if id >= uint64(tcount) {
				return fmt.Errorf("wire: string ID %d out of table range %d", id, tcount)
			}
			setStringField(&out[i], f, names[id])
		}
	}
	// CDN lists.
	for i := 0; i < n; i++ {
		k64, err := fr.uvarint()
		if err != nil {
			return err
		}
		if k64 > uint64(fr.remaining()) {
			return fmt.Errorf("%w: CDN list declares %d entries with %d bytes left", errTruncated, k64, fr.remaining())
		}
		k := int(k64)
		if k == 0 {
			out[i].CDNs = nil
			continue
		}
		list := d.cdnBuf[:0]
		for j := 0; j < k; j++ {
			id, err := fr.uvarint()
			if err != nil {
				return err
			}
			if id >= uint64(tcount) {
				return fmt.Errorf("wire: CDN ID %d out of table range %d", id, tcount)
			}
			list = append(list, names[id])
		}
		d.cdnBuf = list
		out[i].CDNs = d.cdnList(list)
	}
	// Bitrate ladders.
	for i := 0; i < n; i++ {
		k64, err := fr.uvarint()
		if err != nil {
			return err
		}
		if k64 > uint64(fr.remaining()) {
			return fmt.Errorf("%w: bitrate ladder declares %d entries with %d bytes left", errTruncated, k64, fr.remaining())
		}
		k := int(k64)
		if k == 0 {
			out[i].Bitrates = nil
			continue
		}
		list := d.brBuf[:0]
		for j := 0; j < k; j++ {
			u, err := fr.uvarint()
			if err != nil {
				return err
			}
			list = append(list, int(unzigzag(u)))
		}
		d.brBuf = list
		out[i].Bitrates = d.bitrateList(list)
	}
	// Boolean bitset columns.
	if err := readBitset(fr, out, func(r *record.ViewRecord, v bool) { r.Live = v }); err != nil {
		return err
	}
	if err := readBitset(fr, out, func(r *record.ViewRecord, v bool) { r.Syndicated = v }); err != nil {
		return err
	}
	if err := readBitset(fr, out, func(r *record.ViewRecord, v bool) { r.Failed = v }); err != nil {
		return err
	}
	// Float columns.
	for _, set := range floatSetters {
		for i := 0; i < n; i++ {
			u, err := fr.uvarint()
			if err != nil {
				return err
			}
			set(&out[i], unfloatBits(u))
		}
	}
	if fr.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after columns", fr.remaining())
	}
	return nil
}

// tableOnce appends the entries of a string table that has been
// checked already, length prefixes and all, to names: it copies the
// table into one string and every entry is a substring of it, one
// allocation in all.
func tableOnce(table []byte, names []string) []string {
	all := string(table)
	for pos := 0; pos < len(table); {
		l, n := binary.Uvarint(table[pos:])
		pos += n
		names = append(names, all[pos:pos+int(l)])
		pos += int(l)
	}
	return names
}

// setStringField assigns string column f of r; the order must match
// stringFields.
func setStringField(r *record.ViewRecord, f int, s string) {
	switch f {
	case 0:
		r.Publisher = s
	case 1:
		r.VideoID = s
	case 2:
		r.URL = s
	case 3:
		r.Device = s
	case 4:
		r.OS = s
	case 5:
		r.UserAgent = s
	case 6:
		r.SDK = s
	case 7:
		r.SDKVersion = s
	case 8:
		r.ISP = s
	case 9:
		r.ConnType = s
	case 10:
		r.Geo = s
	case 11:
		r.ContentID = s
	case 12:
		r.Owner = s
	}
}

// floatSetters assigns the float columns in frame order.
var floatSetters = [4]func(*record.ViewRecord, float64){
	func(r *record.ViewRecord, v float64) { r.ViewSec = v },
	func(r *record.ViewRecord, v float64) { r.AvgBitrateKbps = v },
	func(r *record.ViewRecord, v float64) { r.RebufferSec = v },
	func(r *record.ViewRecord, v float64) { r.Weight = v },
}

// readBitset unpacks one LSB-first bitset column into out via set.
func readBitset(fr *frameReader, out []record.ViewRecord, set func(*record.ViewRecord, bool)) error {
	b, err := fr.take((len(out) + 7) / 8)
	if err != nil {
		return err
	}
	for i := range out {
		set(&out[i], b[i/8]&(1<<(uint(i)%8)) != 0)
	}
	return nil
}
