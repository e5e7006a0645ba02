package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// On-disk segment record layout. A segment file is a sequence of
// records, nothing else — no file header, no index; the segment's
// place in the log is carried by its name (seg-<first-seq>.wal) and
// each record's own sequence number.
//
//	u32le  length   — byte count of everything after the CRC field
//	u32le  crc32c   — Castagnoli CRC over those length bytes
//	uvarint seq     — the log's monotonic sequence number
//	frames          — one or more wire binary frames (internal/wire),
//	                  one admitted batch: a binary POST's own frames
//	                  (AppendFrames), else Encoder.AppendFrame's, a
//	                  frame per part handed to AppendBatch
//
// The CRC covers the sequence number and the frame bytes, so a torn
// write — a crash mid-record — is detected no matter where it lands:
// a short header, a short body, or a complete-looking body whose
// bytes never all reached the disk.
const (
	recordHeaderBytes = 8

	// MaxRecordBytes bounds one record's post-CRC byte count. The
	// appender chunks batches well below it; the decoder rejects
	// larger declared lengths before allocating, so a corrupt length
	// field cannot provoke an over-allocation.
	MaxRecordBytes = wire.MaxFrameBytes + 64
)

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tornRecord is a segment tail the scan could not use: the offset
// where intact records end and why the rest is unusable. A torn tail
// is the expected aftermath of a crash mid-append; replay stops
// cleanly at the last good record rather than failing the boot.
type tornRecord struct {
	off    int64  // byte offset of the first unusable record
	reason string // "partial header", "partial body", "crc mismatch", "oversized length", "zero length"
}

// scanSegment frames one segment's bytes, handing fn each intact
// record's sequence, offset and frame bytes in order.
//
// A truncated or CRC-failing tail returns a non-nil *tornRecord with a
// nil error: every record before it was handed over, and the caller
// decides whether a torn tail is routine (crash recovery) or fatal. An
// error is returned only for corruption a torn write cannot explain —
// a record whose CRC verifies but whose sequence does not parse — or
// when fn fails. Decoding the frames is the caller's (decodeInOrder).
func scanSegment(data []byte, fn func(seq uint64, off int64, frames []byte) error) (*tornRecord, error) {
	off := int64(0)
	for int64(len(data))-off > 0 {
		rest := data[off:]
		if len(rest) < recordHeaderBytes {
			return &tornRecord{off: off, reason: "partial header"}, nil
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		if n > MaxRecordBytes {
			// A garbage length field cannot be CRC-checked; it reads as
			// a torn write, which on the final record it always is.
			return &tornRecord{off: off, reason: "oversized length"}, nil
		}
		if n == 0 {
			// The appender never writes an empty body (every record
			// holds a sequence and a frame), but a zero-filled tail —
			// preallocated blocks a crash left unwritten — decodes as
			// one, and its CRC check passes vacuously. Torn, not valid.
			return &tornRecord{off: off, reason: "zero length"}, nil
		}
		if int64(len(rest))-recordHeaderBytes < n {
			return &tornRecord{off: off, reason: "partial body"}, nil
		}
		sum := binary.LittleEndian.Uint32(rest[4:])
		body := rest[recordHeaderBytes : recordHeaderBytes+n]
		if crc32.Checksum(body, castagnoli) != sum {
			return &tornRecord{off: off, reason: "crc mismatch"}, nil
		}
		seq, sn := binary.Uvarint(body)
		if sn <= 0 {
			// The CRC verified, so these are the bytes the appender
			// wrote — corruption a torn write cannot explain.
			return nil, fmt.Errorf("wal: record at offset %d: bad sequence varint", off)
		}
		if err := fn(seq, off, body[sn:]); err != nil {
			return nil, err
		}
		off += recordHeaderBytes + n
	}
	return nil, nil
}

// segmentUnits reads and frames one segment: its records as decode
// units, in sequence from the first its name gives, and its torn tail.
func segmentUnits(seg segmentInfo) (units []unit, torn *tornRecord, err error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	torn, err = scanSegment(data, func(seq uint64, off int64, frames []byte) error {
		if want := seg.first + uint64(len(units)); seq != want {
			return fmt.Errorf("wal: %s: sequence %d where %d expected", seg.path, seq, want)
		}
		units = append(units, unit{frames: frames, seq: seq, off: off})
		return nil
	})
	return units, torn, err
}

// appendBatch appends one batch to dst as records starting at sequence
// seq, and returns the extended slice, the next unused sequence and the
// view records encoded. Every non-empty part becomes a wire frame (cut
// at chunk records) and the frames go back to back into one record: one
// sequence, one CRC. Only a batch of more than chunk view records spans
// several records — a frame that would take the open record past chunk
// starts the next — which keeps every record far below MaxRecordBytes
// however much a client posts at once. An empty batch appends nothing.
// enc's scratch is reused across calls.
func appendBatch(dst []byte, enc *wire.Encoder, seq uint64, chunk int, parts [][]record.ViewRecord) ([]byte, uint64, int64, error) {
	start := len(dst)
	base, held := -1, 0 // the open record's offset in dst and the view records in it
	total := int64(0)
	for _, part := range parts {
		for len(part) > 0 {
			n := min(len(part), chunk)
			if base >= 0 && held+n > chunk {
				sealRecord(dst, base)
				base = -1
			}
			if base < 0 {
				base, held = len(dst), 0
				dst = openRecord(dst, seq)
				seq++
			}
			var err error
			if dst, err = enc.AppendFrame(dst, part[:n]); err != nil {
				return dst[:start], seq, 0, err
			}
			held += n
			total += int64(n)
			part = part[n:]
		}
	}
	if base >= 0 {
		sealRecord(dst, base)
	}
	return dst, seq, total, nil
}

// appendFrames is appendBatch for frames, a wire binary stream with its
// length prefixes, copied byte for byte: only a frame that would take
// the open record's body past maxBody starts the next record. A stream
// past wire.MaxBodyBytes, not ending on a frame boundary, or with a
// frame no record can hold is refused, and dst returned as it came.
func appendFrames(dst []byte, seq uint64, maxBody int, frames []byte) ([]byte, uint64, error) {
	if len(frames) > wire.MaxBodyBytes {
		return dst, seq, fmt.Errorf("wal: %d frame bytes exceed wire.MaxBodyBytes %d", len(frames), wire.MaxBodyBytes)
	}
	start, base := len(dst), -1
	for rest := frames; len(rest) > 0; {
		n := len(rest) + 1 // a cut length prefix: no frame fits
		if len(rest) >= 4 {
			n = 4 + int(binary.LittleEndian.Uint32(rest))
		}
		if n > len(rest) || n > maxBody-binary.MaxVarintLen64 {
			return dst[:start], seq, fmt.Errorf("wal: %d bytes left of a frame stream hold no %d-byte frame a record can take", len(rest), n)
		}
		if base >= 0 && len(dst)-base-recordHeaderBytes+n > maxBody {
			sealRecord(dst, base)
			base = -1
		}
		if base < 0 {
			base = len(dst)
			dst = openRecord(dst, seq)
			seq++
		}
		dst = append(dst, rest[:n]...)
		rest = rest[n:]
	}
	if base >= 0 {
		sealRecord(dst, base)
	}
	return dst, seq, nil
}

// openRecord appends a record's header, for sealRecord to fill, and seq.
func openRecord(dst []byte, seq uint64) []byte {
	var hdr [recordHeaderBytes]byte
	return binary.AppendUvarint(append(dst, hdr[:]...), seq)
}

// sealRecord fills in the length and CRC of the record that starts at
// dst[base] and runs to the end of dst.
func sealRecord(dst []byte, base int) {
	body := dst[base+recordHeaderBytes:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.Checksum(body, castagnoli))
}
