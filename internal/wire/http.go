package wire

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"vmp/internal/telemetry/record"
)

// BodyInfo describes how an ingest request body was decoded; ingest
// handlers attach it to their scan spans so traces say which encoding
// a batch arrived in and how many payload bytes it decoded to.
type BodyInfo struct {
	Binary   bool  // binary batch frames (vs the JSONL fallback)
	Gzip     bool  // body arrived Content-Encoding: gzip
	Bytes    int64 // decoded (post-decompression) payload bytes
	Fallback int   // JSONL lines that went to encoding/json (see Decoder.ScanJSONL)
}

// MaxBodyBytes is the largest decoded (post-decompression) ingest
// body DecodeBody accepts: room for two maximal frames, so every legal
// frame is a legal body. Handlers put the same bound on the bytes they
// read off the connection. It is a property of a request, not of a
// stream: ScanJSONL itself reads files of any size (vmpd -load).
const MaxBodyBytes = 2 * MaxFrameBytes

// ErrBodyTooLarge reports an ingest body that decoded — inflated, if
// it was compressed — past MaxBodyBytes; HTTP handlers map it to 413.
var ErrBodyTooLarge = errors.New("wire: request body too large")

// jsonlContentTypes are the media types the JSONL fallback accepts.
// The empty type keeps bare POSTs working; x-www-form-urlencoded is
// what curl --data-binary stamps on piped uploads.
var jsonlContentTypes = map[string]bool{
	"":                                  true,
	ContentTypeJSONL:                    true,
	"application/json":                  true,
	"application/x-www-form-urlencoded": true,
	"text/plain":                        true,
}

// gzPool recycles gzip readers across requests; inflating a fresh
// reader per batch costs more than decoding the batch itself.
var gzPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

// countingReader counts bytes as they are consumed and fails with
// ErrBodyTooLarge once it has handed out more than MaxBodyBytes.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	// Never ask for more than one byte past the cap, however large a
	// frame the decoder is filling.
	room := MaxBodyBytes + 1 - cr.n
	if room <= 0 {
		return 0, ErrBodyTooLarge
	}
	if int64(len(p)) > room {
		p = p[:room]
	}
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	if cr.n > MaxBodyBytes {
		err = ErrBodyTooLarge
	}
	return n, err
}

// DecodeBody negotiates and decodes one ingest request body: the
// Content-Type header picks the decoder (ContentTypeBinary for frame
// streams, the JSONL fallback otherwise) and Content-Encoding: gzip
// is transparently inflated for both. It is the server's half of the
// negotiation; Client is the sender's.
//
// A media type or content coding the ingest path does not speak fails
// with ErrUnsupportedMedia before any body bytes are read (handlers
// map it to 415). Binary decode errors reject the whole batch (recs
// nil, bad 0); JSONL keeps its per-line bad count with err reserved
// for a cut-short stream. A body that decodes past MaxBodyBytes is cut
// short there with ErrBodyTooLarge. Records of either encoding decode
// through dec and obey its reuse contract: they are valid until dec's
// next decode.
func DecodeBody(hdr http.Header, body io.Reader, dec *Decoder) (recs []record.ViewRecord, bad int, info BodyInfo, err error) {
	ct := hdr.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(ct)
	switch {
	case ct == ContentTypeBinary:
		info.Binary = true
	case jsonlContentTypes[strings.ToLower(ct)]:
	default:
		return nil, 0, info, fmt.Errorf("%w: Content-Type %q", ErrUnsupportedMedia, ct)
	}

	switch ce := strings.ToLower(strings.TrimSpace(hdr.Get("Content-Encoding"))); ce {
	case "", "identity":
	case "gzip", "x-gzip":
		info.Gzip = true
		gz := gzPool.Get().(*gzip.Reader)
		if err := gz.Reset(body); err != nil {
			gzPool.Put(gz)
			return nil, 0, info, fmt.Errorf("wire: bad gzip body: %w", err)
		}
		defer func() {
			// A Close error means a corrupt trailing checksum: surface it
			// as a decode failure unless one is already being returned.
			if cerr := gz.Close(); cerr != nil && err == nil {
				recs, bad, err = nil, 0, fmt.Errorf("wire: closing gzip body: %w", cerr)
			}
			gzPool.Put(gz)
		}()
		body = gz
	default:
		return nil, 0, info, fmt.Errorf("%w: Content-Encoding %q", ErrUnsupportedMedia, ce)
	}

	cr := &countingReader{r: body}
	defer func() { info.Bytes = cr.n }()
	if info.Binary {
		recs, err = dec.DecodeAll(cr)
		return recs, 0, info, err
	}
	recs, bad, info.Fallback, err = dec.ScanJSONL(cr)
	return recs, bad, info, err
}
