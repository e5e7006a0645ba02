package wire_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// oracleScanJSONL is what a JSONL body means: split on newlines, trim,
// json.Unmarshal each line into a fresh record, and count a line bad
// when that fails or leaves no publisher. Decoder.ScanJSONL must agree
// with it on every input, record for record.
func oracleScanJSONL(body []byte) (batch []record.ViewRecord, bad int) {
	for _, line := range bytes.Split(body, []byte("\n")) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		var rec record.ViewRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Publisher == "" {
			bad++
			continue
		}
		batch = append(batch, rec)
	}
	return batch, bad
}

// checkAgainstOracle decodes body on dec and requires the oracle's
// records (nil-versus-empty lists and time.Time representation
// included), order and bad count. It returns the fallback count.
func checkAgainstOracle(t *testing.T, dec *wire.Decoder, body []byte) int {
	t.Helper()
	want, wantBad := oracleScanJSONL(body)
	got, bad, fallback, err := dec.ScanJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ScanJSONL(%q): %v", body, err)
	}
	if bad != wantBad || len(got) != len(want) {
		t.Fatalf("ScanJSONL(%q) = %d records, %d bad; encoding/json says %d, %d", body, len(got), bad, len(want), wantBad)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("ScanJSONL(%q) record %d:\n got %#v\nwant %#v", body, i, got[i], want[i])
		}
	}
	return fallback
}

func jsonlBody(t testing.TB, recs []record.ViewRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.EncodeJSONL(&buf, recs); err != nil {
		t.Fatalf("EncodeJSONL: %v", err)
	}
	return buf.Bytes()
}

// canonicalCorpus is generator-shaped traffic: genRecords plus the
// shapes it lacks — empty-but-present lists, fractional and leap-day
// timestamps, year boundaries, non-ASCII text, extreme floats.
func canonicalCorpus() []record.ViewRecord {
	recs := genRecords(3000)
	for i := range recs {
		r := &recs[i]
		switch i % 10 {
		case 1:
			r.CDNs, r.Bitrates = []string{}, []int{}
		case 2:
			r.Timestamp = r.Timestamp.Add(123456789)
		case 3:
			r.Timestamp = r.Timestamp.Add(500 * 1e6)
			r.ViewSec, r.Weight = 1e21, 1e-7
		case 4:
			r.Geo, r.ISP = "DE-Köln", "日本"
			r.RebufferSec = -0.5e-2
		}
	}
	recs[5].Timestamp = recs[5].Timestamp.AddDate(4, 0, -1).Add(86399*1e9 + 999999999) // 2016-02-29T23:59:59.999999999Z
	recs[6].Timestamp = recs[6].Timestamp.AddDate(-2011, 9, 30)                        // year 0001
	recs[7].Timestamp = recs[7].Timestamp.AddDate(7987, 9, 30)                         // year 9999
	return recs
}

const goodLine = `{"ts":"2016-04-01T00:00:00Z","pub":"p1","video":"v","url":"http://x/a.m3u8","device":"Roku","os":"","cdns":["A","B"],"bitrates":[400,800],"isp":"i","conn":"wifi","geo":"US","live":false,"synd":true,"content":"c","viewsec":12.5,"avgkbps":600,"rebufsec":0}`

// hostileLines is one line per hazard: every way a line can look like
// the canonical shape and mean something else, or nothing.
var hostileLines = []string{
	goodLine,
	"  \t" + goodLine + " \r",
	"\v" + goodLine + "\f",
	` { "pub" : "a" , "cdns" : [ "x" , "y" ] , "bitrates" : [ 1 , 2 ] , "live" : true } `,
	`{"pub":"a","cdns":[],"bitrates":[]}`,
	`{"pub":"a","cdns":null,"bitrates":null}`,
	`{"pub":"a","cdns":[ ],"bitrates":[ ]}`,
	`{"pub":"a"}`,
	`{"pub":"\u0041"}`,
	`{"pub":"a\"b"}`,
	`{"pub":"a\\"}`,
	`{"pub":"a\/b"}`,
	`{"PUB":"a"}`,
	`{"Pub":"a","pub":"b"}`,
	`{"pub":"a","pub":"b"}`,
	`{"pub":"a","cdns":["x","y","z"],"cdns":["w"]}`,
	`{"pub":"a","bitrates":[1,2,3],"bitrates":[4]}`,
	`{"pub":"a","cdns":["x"],"cdns":null}`,
	`{"pub":"a","nosuchkey":1}`,
	`{"pub":"a","nosuchkey":{"pub":"b"}}`,
	`{"pub":"a"} trailing`,
	`{"pub":"a"}{"pub":"b"}`,
	`{"pub":"a"},`,
	`{"pub":"a","viewsec":1e3}`,
	`{"pub":"a","viewsec":1E+3}`,
	`{"pub":"a","viewsec":01}`,
	`{"pub":"a","viewsec":0.}`,
	`{"pub":"a","viewsec":.5}`,
	`{"pub":"a","viewsec":-0}`,
	`{"pub":"a","viewsec":-0.5E-2}`,
	`{"pub":"a","viewsec":1e999}`,
	`{"pub":"a","viewsec":-1e999}`,
	`{"pub":"a","viewsec":1e-999}`,
	`{"pub":"a","viewsec":+1}`,
	`{"pub":"a","viewsec":-}`,
	`{"pub":"a","viewsec":1e}`,
	`{"pub":"a","viewsec":1e+}`,
	`{"pub":"a","viewsec":Inf}`,
	`{"pub":"a","viewsec":NaN}`,
	`{"pub":"a","viewsec":0x10}`,
	`{"pub":"a","viewsec":1_000}`,
	`{"pub":"a","viewsec":"1"}`,
	`{"pub":"a","viewsec":null}`,
	`{"pub":"a","viewsec":0.1234567890123456789012345678901234567890}`,
	`{"pub":"a","viewsec":123456789012345678901234567890123456789012}`,
	`{"pub":"a","viewsec":1x}`,
	`{"pub":"a","bitrates":[1,2.0]}`,
	`{"pub":"a","bitrates":[1e2]}`,
	`{"pub":"a","bitrates":[-0,-7,0]}`,
	`{"pub":"a","bitrates":[01]}`,
	`{"pub":"a","bitrates":[12345678901234567890]}`,
	`{"pub":"a","bitrates":[9223372036854775807,-9223372036854775808]}`,
	`{"pub":"a","bitrates":[9223372036854775808]}`,
	`{"pub":"a","bitrates":[1,]}`,
	`{"pub":"a","bitrates":[,1]}`,
	`{"pub":"a","bitrates":[1 2]}`,
	`{"pub":"a","bitrates":[null]}`,
	`{"pub":"a","bitrates":["1"]}`,
	`{"pub":"a","bitrates":[1}`,
	`{"pub":"a","bitrates":7}`,
	`{"pub":"a","bitrates":{}}`,
	`{"pub":"a","cdns":["x",]}`,
	`{"pub":"a","cdns":[null]}`,
	`{"pub":"a","cdns":["x" "y"]}`,
	`{"pub":"a","cdns":[1]}`,
	`{"pub":"a","cdns":"x"}`,
	`{"pub":"a","cdns":["\u0041"]}`,
	`{"pub":"a","ts":"2017-02-29T00:00:00Z"}`,
	`{"pub":"a","ts":"2016-02-29T23:59:59.123456789Z"}`,
	`{"pub":"a","ts":"1900-02-29T00:00:00Z"}`,
	`{"pub":"a","ts":"2000-02-29T00:00:00Z"}`,
	`{"pub":"a","ts":"0000-02-29T00:00:00Z"}`,
	`{"pub":"a","ts":"2016-04-31T00:00:00Z"}`,
	`{"pub":"a","ts":"2016-12-31T23:59:60Z"}`,
	`{"pub":"a","ts":"2016-12-31T24:00:00Z"}`,
	`{"pub":"a","ts":"2016-12-31T23:60:00Z"}`,
	`{"pub":"a","ts":"2016-13-01T00:00:00Z"}`,
	`{"pub":"a","ts":"2016-00-01T00:00:00Z"}`,
	`{"pub":"a","ts":"2016-01-00T00:00:00Z"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00+01:00"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00-00:00"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00+00:00"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00.1Z"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00.000000001Z"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00.1234567891Z"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00.Z"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00,5Z"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00.5"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00"}`,
	`{"pub":"a","ts":"2016-04-01t00:00:00Z"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00z"}`,
	`{"pub":"a","ts":"2016-04-01 00:00:00Z"}`,
	`{"pub":"a","ts":"2016-04-01T0:00:00Z"}`,
	`{"pub":"a","ts":"2016-4-1T00:00:00Z"}`,
	`{"pub":"a","ts":"16-04-01T00:00:00Z"}`,
	`{"pub":"a","ts":"12016-04-01T00:00:00Z"}`,
	`{"pub":"a","ts":"201a-04-01T00:00:00Z"}`,
	`{"pub":"a","ts":"-016-04-01T00:00:00Z"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00.5aZ"}`,
	`{"pub":"a","ts":"2016-04-01T00:00:00Z "}`,
	`{"pub":"a","ts":"2016-04-01T00:00:0\u0030Z"}`,
	`{"pub":"a","ts":""}`,
	`{"pub":"a","ts":null}`,
	`{"pub":"a","ts":1459468800}`,
	`{"pub":null}`,
	`{"pub":""}`,
	`{"pub":7}`,
	`{"pub":["a"]}`,
	"{\"pub\":\"a\xff\"}",
	"{\"pub\":\"a\",\"geo\":\"\xc3\"}",
	"{\"pub\":\"a\",\"geo\":\"\xed\xa0\x80\"}",
	"{\"pub\":\"a\",\"cdns\":[\"\xff\"]}",
	`{"pub":"é","geo":"日本語","url":"http://x/ü.mpd"}`,
	"{\"pub\":\"a\tb\"}",
	"{\"pub\":\"a\x00b\"}",
	"{\"pub\":\"a\x7fb\"}",
	"{\"pub\":\"a\u2028b\"}",
	"\xef\xbb\xbf" + `{"pub":"a"}`,
	"\u00a0" + `{"pub":"a"}` + "\u0085",
	`{"pub":"a","live":truex}`,
	`{"pub":"a","live":tru}`,
	`{"pub":"a","live":True}`,
	`{"pub":"a","live":null}`,
	`{"pub":"a","live":1}`,
	`{"pub":"a","live":"true"}`,
	`{"pub":"a","live":true,"synd":false,"failed":true}`,
	`{}`,
	`{ }`,
	`[]`,
	`null`,
	`"pub"`,
	`7`,
	`{`,
	`}`,
	`{"pub"`,
	`{"pub":`,
	`{"pub":"a"`,
	`{"pub":"a",}`,
	`{,"pub":"a"}`,
	`{"pub" "a"}`,
	`{"pub":"a" "geo":"b"}`,
	`{pub:"a"}`,
	`{'pub':'a'}`,
	`{"pub":"a","":1}`,
	`{"":"a"}`,
	`{"pub":"a","owner":"o","ua":"u","sdk":"s","sdkver":"1","failed":true,"weight":2.5}`,
	`{"weight":2.5,"failed":true,"rebufsec":1,"avgkbps":2,"viewsec":3,"owner":"o","content":"c","synd":true,"live":true,"geo":"g","conn":"n","isp":"i","bitrates":[1],"cdns":["x"],"sdkver":"1","sdk":"s","ua":"u","os":"o","device":"d","url":"u","video":"v","pub":"a","ts":"2016-04-01T00:00:00Z"}`,
	`{"pub":"a","url":"http://x/a.m3u8?x=1\u0026y=2"}`,
	`{"pub":"a","url":"http://x/a.m3u8?x=1&y=2"}`,
}

// TestScanJSONLMatchesEncodingJSON is the differential test behind the
// fast arm: over generator-shaped traffic and over every hazard in
// hostileLines — each line alone on a fresh decoder, then all of them
// in one body on a warm one — the decoder's records, order and bad
// count are the oracle's, and no line json.Marshal produced takes the
// fallback.
func TestScanJSONLMatchesEncodingJSON(t *testing.T) {
	dec := wire.NewDecoder()
	corpus := jsonlBody(t, canonicalCorpus())
	if fallback := checkAgainstOracle(t, dec, corpus); fallback != 0 {
		t.Errorf("%d lines of EncodeJSONL output took the encoding/json fallback, want 0", fallback)
	}
	if want, bad := oracleScanJSONL(corpus); len(want) != 3000 || bad != 0 {
		t.Fatalf("the corpus is %d records, %d bad by encoding/json; want 3000, 0", len(want), bad)
	}
	for _, line := range hostileLines {
		checkAgainstOracle(t, wire.NewDecoder(), []byte(line))
	}
	all := []byte(strings.Join(hostileLines, "\n") + "\n\n  \n" + goodLine + "\n")
	checkAgainstOracle(t, dec, all)
	checkAgainstOracle(t, dec, append(all, corpus...))
	if fallback := checkAgainstOracle(t, dec, []byte(goodLine)); fallback != 0 {
		t.Errorf("the canonical line took the fallback")
	}
	if fallback := checkAgainstOracle(t, dec, []byte(`{"pub":"a","url":"x?a\u0026b"}`)); fallback != 1 {
		t.Errorf("an escaped string reported fallback = %d, want 1", fallback)
	}
}

// TestJSONLSlotReuseDoesNotAlias pins the hazard json.Unmarshal's
// slice reuse creates on a reused record slot: body A's lines take the
// fast arm and leave CDN and bitrate views in the decoder's slots;
// body B's lines all take the fallback (an escape in pub) with longer
// lists. Had the slots not been zeroed, json.Unmarshal would have
// written B's lists through A's headers, into the interned lists the
// records admitted from A still point at.
func TestJSONLSlotReuseDoesNotAlias(t *testing.T) {
	a, b := slotReuseBodies(t)
	dec := wire.NewDecoder()
	got, bad, fallback, err := dec.ScanJSONL(bytes.NewReader(a))
	if err != nil || bad != 0 || fallback != 0 || len(got) != 64 {
		t.Fatalf("body A: %d records, %d bad, %d fallback, err %v", len(got), bad, fallback, err)
	}
	admitted := append([]record.ViewRecord(nil), got...) // what Engine.Ingest / Store.Append do
	want := deepCloneRecords(admitted)
	got, bad, fallback, err = dec.ScanJSONL(bytes.NewReader(b))
	if err != nil || bad != 0 || fallback != 64 || len(got) != 64 {
		t.Fatalf("body B: %d records, %d bad, %d fallback, err %v", len(got), bad, fallback, err)
	}
	if !reflect.DeepEqual(admitted, want) {
		t.Fatal("records admitted from body A changed when body B was decoded on the same decoder")
	}
	// And the other way round: a fast body after a fallback body.
	admitted = append([]record.ViewRecord(nil), got...)
	want = deepCloneRecords(admitted)
	if _, _, _, err := dec.ScanJSONL(bytes.NewReader(a)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(admitted, want) {
		t.Fatal("records admitted from body B changed when body A was decoded on the same decoder")
	}
}

// slotReuseBodies returns a 64-line body whose lines are canonical and
// carry CDN lists, and a 64-line body whose lines all need
// encoding/json and carry longer ones.
func slotReuseBodies(t testing.TB) (fast, slow []byte) {
	recs := genRecords(64)
	for i := range recs {
		recs[i].CDNs = []string{"cdn-a", "cdn-b"}
		recs[i].Bitrates = []int{400, 800}
	}
	fast = jsonlBody(t, recs)
	for i := range recs {
		recs[i].Publisher = "B&" + recs[i].Publisher // json.Marshal escapes the ampersand
		recs[i].CDNs = []string{"cdn-w", "cdn-x", "cdn-y", "cdn-z"}
		recs[i].Bitrates = []int{9999, 8888, 7777, 6666}
	}
	return fast, jsonlBody(t, recs)
}

// TestScanJSONLFailedFastParseLeavesNoTrace covers a line the fast arm
// gives up on after it has filled lists: the fallback's record must not
// show them, nor the next line's — and json.Unmarshal must not write
// through them. The last line's fast parse leaves it holding the
// interned lists of line 2, and encoding/json's first cdns and
// bitrates values would overwrite them before its second ones win.
func TestScanJSONLFailedFastParseLeavesNoTrace(t *testing.T) {
	body := []byte(`{"pub":"a","cdns":["x","y"],"bitrates":[1,2],"geo":"\u0041"}
{"pub":"b","cdns":["z"],"bitrates":[3]}
{"cdns":["q"],"bitrates":[4],"pub":"c","pub":""}
{"pub":"d","cdns":["w"]}
{"pub":"e","cdns":["u","v"],"cdns":["z"],"bitrates":[5,6],"bitrates":[3]}`)
	dec := wire.NewDecoder()
	checkAgainstOracle(t, dec, body)
	checkAgainstOracle(t, dec, body)
}

// TestScanJSONLSteadyStateAllocs pins the memory discipline: a warm
// decoder scans a 200-record canonical body without allocating — its
// strings and lists come out of the decoder's caches — and so pins that
// the string(...) conversions in the line parser and the bufio.Scanner
// stay on the stack. Through DecodeBody with gzip what is added is
// compress/gzip's own.
func TestScanJSONLSteadyStateAllocs(t *testing.T) {
	body := jsonlBody(t, genRecords(200))
	dec := wire.NewDecoder()
	rd := bytes.NewReader(body)
	scan := func() {
		rd.Reset(body)
		if got, bad, fallback, err := dec.ScanJSONL(rd); err != nil || len(got) != 200 || bad != 0 || fallback != 0 {
			t.Fatalf("ScanJSONL: %d records, %d bad, %d fallback, err %v", len(got), bad, fallback, err)
		}
	}
	scan() // warm the line buffer, the record slice and the intern cache
	if allocs := testing.AllocsPerRun(50, scan); allocs != 0 {
		t.Errorf("steady-state ScanJSONL of 200 records costs %.1f allocs/op, want 0", allocs)
	}

	gz := gzipBytes(t, body)
	hdr := http.Header{"Content-Type": {wire.ContentTypeJSONL}, "Content-Encoding": {"gzip"}}
	decode := func() {
		rd.Reset(gz)
		got, bad, info, err := wire.DecodeBody(hdr, rd, dec)
		if err != nil || len(got) != 200 || bad != 0 || info.Fallback != 0 || info.Bytes != int64(len(body)) {
			t.Fatalf("DecodeBody: %d records, %d bad, info %+v, err %v", len(got), bad, info, err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(50, decode); allocs > 32 {
		t.Errorf("steady-state gzip DecodeBody of 200 records costs %.1f allocs/op, want <= 32", allocs)
	}
}

func gzipBytes(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blanks is an endless JSONL body of blank lines; io.LimitReader cuts
// it to size.
type blanks struct{}

var blankLine = append(bytes.Repeat([]byte{' '}, 4095), '\n')

func (blanks) Read(p []byte) (n int, err error) {
	for n < len(p) {
		n += copy(p[n:], blankLine)
	}
	return n, nil
}

// TestDecodeBodyCapsDecodedBytes walks the MaxBodyBytes boundary with
// bodies that are one record and then blank lines: exactly at the cap
// is a body, one byte more is ErrBodyTooLarge — plain, or inflated
// from a gzip body a thousandth the size — and the same decoder then
// decodes a good body.
func TestDecodeBodyCapsDecodedBytes(t *testing.T) {
	dec := wire.NewDecoder()
	line := goodLine + "\n"
	jsonl := http.Header{"Content-Type": {wire.ContentTypeJSONL}}
	padded := func(total int64) io.Reader {
		return io.MultiReader(strings.NewReader(line), io.LimitReader(blanks{}, total-int64(len(line))))
	}

	recs, bad, info, err := wire.DecodeBody(jsonl, padded(wire.MaxBodyBytes), dec)
	if err != nil || len(recs) != 1 || bad != 0 || info.Bytes != wire.MaxBodyBytes {
		t.Fatalf("body of exactly MaxBodyBytes: %d records, %d bad, %d bytes, err %v", len(recs), bad, info.Bytes, err)
	}
	_, _, info, err = wire.DecodeBody(jsonl, padded(wire.MaxBodyBytes+1), dec)
	if !errors.Is(err, wire.ErrBodyTooLarge) || info.Bytes != wire.MaxBodyBytes+1 {
		t.Fatalf("body one byte past MaxBodyBytes: err %v after %d bytes, want ErrBodyTooLarge", err, info.Bytes)
	}

	// The cap is a request's, not a stream's: vmpd -load reads files of
	// any size through ScanJSONL.
	if recs, bad, err := wire.ScanJSONL(padded(wire.MaxBodyBytes + 1)); err != nil || len(recs) != 1 || bad != 0 {
		t.Fatalf("ScanJSONL past MaxBodyBytes: %d records, %d bad, err %v", len(recs), bad, err)
	}

	bomb := gzipBomb(t, []byte(line))
	if len(bomb) > wire.MaxBodyBytes/500 {
		t.Fatalf("gzip bomb is %d bytes; the test wants a ratio worth bounding", len(bomb))
	}
	gz := http.Header{"Content-Type": {wire.ContentTypeJSONL}, "Content-Encoding": {"gzip"}}
	_, _, info, err = wire.DecodeBody(gz, bytes.NewReader(bomb), dec)
	if !errors.Is(err, wire.ErrBodyTooLarge) || !info.Gzip {
		t.Fatalf("gzip bomb: err %v, info %+v, want ErrBodyTooLarge", err, info)
	}

	recs, bad, _, err = wire.DecodeBody(jsonl, strings.NewReader(line), dec)
	if err != nil || len(recs) != 1 || bad != 0 || recs[0].Publisher != "p1" {
		t.Fatalf("good body after the oversized ones: %d records, %d bad, err %v", len(recs), bad, err)
	}
}

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// a quarter of what it is handed, so pool pins do not hold there.
var raceEnabled bool

// TestDecodeBodyBadGzipReturnsReader pins the gzip reader pool on the
// path that gives up before inflating anything: a body whose gzip
// header is bad must hand its reader back. AllocsPerRun runs at
// GOMAXPROCS=1, where the reader one call Puts is the one the next
// Gets; a lost one shows up as a fresh gzip.Reader per call.
func TestDecodeBodyBadGzipReturnsReader(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	dec := wire.NewDecoder()
	hdr := http.Header{"Content-Type": {wire.ContentTypeJSONL}, "Content-Encoding": {"gzip"}}
	bad := []byte("not a gzip member")
	body := bytes.NewReader(bad)
	decode := func() {
		body.Reset(bad)
		if _, _, _, err := wire.DecodeBody(hdr, body, dec); !errors.Is(err, gzip.ErrHeader) {
			t.Fatalf("bad gzip header: err %v, want gzip.ErrHeader", err)
		}
	}
	decode() // the pool's first reader
	if got := testing.AllocsPerRun(100, decode); got > 2 {
		t.Errorf("%.0f allocs per bad gzip body, want <= 2", got)
	}
}

// gzipBomb returns a small gzip body that inflates to head and then
// more than MaxBodyBytes of blank lines: one gzip member for head,
// then the same 1 MiB member of blanks over and over (gzip readers
// concatenate members).
func gzipBomb(t testing.TB, head []byte) []byte {
	t.Helper()
	bomb := gzipBytes(t, head)
	blank := gzipBytes(t, bytes.Repeat(blankLine, 256))
	for i := 0; i <= wire.MaxBodyBytes>>20; i++ {
		bomb = append(bomb, blank...)
	}
	return bomb
}

// TestDecodeBodyCutFrameKeepsItsCause: a frame whose payload read
// fails is truncated, and still says why — so a handler can tell a
// body cut by a size cap (413) from one that simply ended early (400).
func TestDecodeBodyCutFrameKeepsItsCause(t *testing.T) {
	frame := encodeFrames(t, genRecords(10))
	body := io.MultiReader(bytes.NewReader(frame[:len(frame)/2]), iotest.ErrReader(wire.ErrBodyTooLarge))
	_, _, _, err := wire.DecodeBody(http.Header{"Content-Type": {wire.ContentTypeBinary}}, body, wire.NewDecoder())
	if !errors.Is(err, wire.ErrBodyTooLarge) {
		t.Fatalf("payload read failed with %v; want the cause kept", err)
	}
}

// BenchmarkDecoderScanJSONL is the in-package microscope for bench/'s
// wire.decode_ms_per_batch on a JSONL POST (ingest_jsonl): one op scans
// the 2000 records BenchmarkWireDecode decodes, as JSON lines, through
// a warm decoder.
func BenchmarkDecoderScanJSONL(b *testing.B) {
	recs := genRecords(2000)
	body := jsonlBody(b, recs)
	dec := wire.NewDecoder()
	rd := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		out, bad, fallback, err := dec.ScanJSONL(rd)
		if err != nil || bad != 0 || fallback != 0 || len(out) != len(recs) {
			b.Fatalf("scanned %d records, %d bad, %d fallback, err %v", len(out), bad, fallback, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "records/s")
}
