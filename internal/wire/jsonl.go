package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
	"unicode/utf8"

	"vmp/internal/telemetry/record"
)

// MaxLineBytes is the largest JSONL line the wire-level ingest paths
// accept. bufio.Scanner's default cap is 64 KiB, which a record with a
// long CDN list or bitrate ladder can exceed; every ingest scanner in
// the module (the serving plane's handler and vmpd -load) shares this
// limit so a long line is a surfaced scan error, never a silent
// truncation.
const MaxLineBytes = 1 << 20

// ScanJSONL reads JSON-lines view records from r with the module-wide
// MaxLineBytes line cap. Blank lines are skipped; lines that fail to
// parse or lack a publisher are counted in bad, not returned. A
// non-nil err (an oversized line or a transport read error) means the
// stream was cut short: batch holds the records scanned up to that
// point and the caller decides whether to keep them. The decoder is
// the call's own, so batch is the caller's to keep.
func ScanJSONL(r io.Reader) (batch []record.ViewRecord, bad int, err error) {
	batch, bad, _, err = NewDecoder().ScanJSONL(r)
	return batch, bad, err
}

// ScanJSONL is the JSON-lines arm of the decoder, under the same
// ownership contract as DecodeAll (see the type comment): batch is the
// decoder's reused record slice, valid until the decoder's next
// decode. bad and err mean what the package-level ScanJSONL says.
//
// encoding/json defines what a line means. parseLine vouches only for
// the canonical shape json.Marshal itself emits; every line it does
// not recognize goes to json.Unmarshal, and fallback counts those — a
// client whose lines all land there is correct but four times slower.
func (d *Decoder) ScanJSONL(r io.Reader) (batch []record.ViewRecord, bad, fallback int, err error) {
	d.recs, d.frames = d.recs[:0], nil
	if d.line == nil {
		d.line = make([]byte, 64*1024)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(d.line, MaxLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		n := len(d.recs)
		d.recs = append(d.recs, record.ViewRecord{})
		rec := &d.recs[n]
		ok := d.parseLine(line, rec)
		if !ok {
			// json.Unmarshal writes into whatever slices its target
			// already holds — an abandoned parse's lists are interned
			// and shared — so it gets a zeroed slot, and its own lists
			// are interned after it like the fast arm's (an empty one
			// it makes has no capacity).
			fallback++
			*rec = record.ViewRecord{}
			ok = json.Unmarshal(line, rec) == nil
			if len(rec.CDNs) > 0 {
				rec.CDNs = d.cdnList(rec.CDNs)
			}
			if len(rec.Bitrates) > 0 {
				rec.Bitrates = d.bitrateList(rec.Bitrates)
			}
		}
		if !ok || rec.Publisher == "" {
			bad++
			d.recs = d.recs[:n]
		}
	}
	return d.recs, bad, fallback, sc.Err()
}

// One bit per ViewRecord key, so parseLine can refuse a key's second
// appearance (json.Unmarshal lets the last one win).
const (
	keyTS = 1 << iota
	keyPub
	keyVideo
	keyURL
	keyDevice
	keyOS
	keyUA
	keySDK
	keySDKVer
	keyCDNs
	keyBitrates
	keyISP
	keyConn
	keyGeo
	keyLive
	keySynd
	keyContent
	keyOwner
	keyViewSec
	keyAvgKbps
	keyRebufSec
	keyFailed
	keyWeight
)

// parseLine decodes one line into the zeroed *rec if the line has the
// shape json.Marshal gives a ViewRecord: an object whose keys are the
// struct's JSON names, exactly cased, each at most once, in any order
// and with any JSON whitespace between tokens; strings with no escape;
// JSON-grammar numbers; true or false; null or an array for the two
// lists; ts in RFC 3339 UTC. It reports false on anything else —
// including every line json.Unmarshal would reject — and may by then
// have written part of *rec, which the caller undoes.
// When it reports true, *rec is reflect.DeepEqual to what
// json.Unmarshal makes of the line (TestScanJSONLMatchesEncodingJSON,
// FuzzScanJSONL).
func (d *Decoder) parseLine(line []byte, rec *record.ViewRecord) bool {
	c := lineCursor{b: line}
	if !c.eat('{') {
		return false
	}
	c.skipSpace()
	if c.eat('}') {
		return c.pos == len(c.b)
	}
	seen := 0
	for {
		c.skipSpace()
		key, ok := c.str()
		if !ok {
			return false
		}
		c.skipSpace()
		if !c.eat(':') {
			return false
		}
		c.skipSpace()
		bit := 0
		switch string(key) { // the compiler compares in place; pinned by TestScanJSONLSteadyStateAllocs
		case "ts":
			bit = keyTS
			rec.Timestamp, ok = c.timestamp()
		case "pub":
			bit = keyPub
			rec.Publisher, ok = d.internStr(&c)
		case "video":
			bit = keyVideo
			rec.VideoID, ok = d.internStr(&c)
		case "url":
			bit = keyURL
			rec.URL, ok = d.internStr(&c)
		case "device":
			bit = keyDevice
			rec.Device, ok = d.internStr(&c)
		case "os":
			bit = keyOS
			rec.OS, ok = d.internStr(&c)
		case "ua":
			bit = keyUA
			rec.UserAgent, ok = d.internStr(&c)
		case "sdk":
			bit = keySDK
			rec.SDK, ok = d.internStr(&c)
		case "sdkver":
			bit = keySDKVer
			rec.SDKVersion, ok = d.internStr(&c)
		case "cdns":
			bit = keyCDNs
			rec.CDNs, ok = d.scanCDNs(&c)
		case "bitrates":
			bit = keyBitrates
			rec.Bitrates, ok = d.scanBitrates(&c)
		case "isp":
			bit = keyISP
			rec.ISP, ok = d.internStr(&c)
		case "conn":
			bit = keyConn
			rec.ConnType, ok = d.internStr(&c)
		case "geo":
			bit = keyGeo
			rec.Geo, ok = d.internStr(&c)
		case "live":
			bit = keyLive
			rec.Live, ok = c.boolean()
		case "synd":
			bit = keySynd
			rec.Syndicated, ok = c.boolean()
		case "content":
			bit = keyContent
			rec.ContentID, ok = d.internStr(&c)
		case "owner":
			bit = keyOwner
			rec.Owner, ok = d.internStr(&c)
		case "viewsec":
			bit = keyViewSec
			rec.ViewSec, ok = c.float()
		case "avgkbps":
			bit = keyAvgKbps
			rec.AvgBitrateKbps, ok = c.float()
		case "rebufsec":
			bit = keyRebufSec
			rec.RebufferSec, ok = c.float()
		case "failed":
			bit = keyFailed
			rec.Failed, ok = c.boolean()
		case "weight":
			bit = keyWeight
			rec.Weight, ok = c.float()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		c.skipSpace()
		if c.eat(',') {
			continue
		}
		return c.eat('}') && c.pos == len(c.b)
	}
}

// internStr reads a string value through the decoder's intern cache,
// so what the record keeps is never a view of the line buffer.
func (d *Decoder) internStr(c *lineCursor) (string, bool) {
	b, ok := c.str()
	if !ok {
		return "", false
	}
	return d.internBytes(b), true
}

// scanCDNs reads null (a nil list, as json.Unmarshal leaves it) or an
// array of strings, interned as a list (Decoder.cdnList); [] is an
// empty list that is not nil, which is how json tells the two apart and
// how vmpd's dump re-encodes them.
func (d *Decoder) scanCDNs(c *lineCursor) ([]string, bool) {
	if c.word("null") {
		return nil, true
	}
	if !c.eat('[') {
		return nil, false
	}
	list := d.cdnBuf[:0]
	c.skipSpace()
	for !c.eat(']') {
		if len(list) > 0 && !c.eat(',') {
			return nil, false
		}
		c.skipSpace()
		s, ok := d.internStr(c)
		if !ok {
			return nil, false
		}
		list = append(list, s)
		c.skipSpace()
	}
	d.cdnBuf = list
	if len(list) == 0 {
		return []string{}, true // not the scratch, which may be nil and has capacity
	}
	return d.cdnList(list), true
}

// lineCursor is a bounds-checked cursor over one JSONL line. Its
// methods consume a token only when they report success.
type lineCursor struct {
	b   []byte
	pos int
}

func (c *lineCursor) skipSpace() {
	for c.pos < len(c.b) {
		switch c.b[c.pos] {
		case ' ', '\t', '\r', '\n':
			c.pos++
		default:
			return
		}
	}
}

func (c *lineCursor) eat(ch byte) bool {
	if c.pos < len(c.b) && c.b[c.pos] == ch {
		c.pos++
		return true
	}
	return false
}

// word consumes the literal w. What follows it is the caller's to
// check: every value is followed by a comma or a closing bracket, so
// "truex" fails there.
func (c *lineCursor) word(w string) bool {
	if len(c.b)-c.pos < len(w) {
		return false
	}
	for i := 0; i < len(w); i++ {
		if c.b[c.pos+i] != w[i] {
			return false
		}
	}
	c.pos += len(w)
	return true
}

func (c *lineCursor) boolean() (v, ok bool) {
	if c.word("true") {
		return true, true
	}
	return false, c.word("false")
}

// str consumes a quoted string and returns the bytes between the
// quotes, a view of the line. It refuses what json.Unmarshal would
// rewrite or reject: an escape, a control byte, invalid UTF-8 (which
// json replaces with U+FFFD).
func (c *lineCursor) str() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	ascii := true
	for i := c.pos; i < len(c.b); i++ {
		ch := c.b[i]
		if !strStop[ch] {
			continue
		}
		switch {
		case ch == '"':
			s := c.b[c.pos:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			c.pos = i + 1
			return s, true
		case ch >= utf8.RuneSelf:
			ascii = false
		default:
			return nil, false
		}
	}
	return nil, false
}

// strStop marks the bytes str cannot simply step over: the closing
// quote, the backslash, control bytes, and anything outside ASCII.
var strStop = func() (t [256]bool) {
	for ch := range t {
		t[ch] = ch == '"' || ch == '\\' || ch < 0x20 || ch >= utf8.RuneSelf
	}
	return t
}()

// number consumes one literal of the JSON number grammar, which is
// narrower than what strconv accepts (01, .5, 0., +1, Inf, hex), and
// reports whether it is an integer literal.
func (c *lineCursor) number() (lit []byte, integer, ok bool) {
	i := c.pos
	if i < len(c.b) && c.b[i] == '-' {
		i++
	}
	if i < len(c.b) && c.b[i] == '0' {
		i++
	} else if i, ok = c.digits(i); !ok {
		return nil, false, false
	}
	integer = true
	if i < len(c.b) && c.b[i] == '.' {
		integer = false
		if i, ok = c.digits(i + 1); !ok {
			return nil, false, false
		}
	}
	if i < len(c.b) && (c.b[i] == 'e' || c.b[i] == 'E') {
		integer = false
		i++
		if i < len(c.b) && (c.b[i] == '+' || c.b[i] == '-') {
			i++
		}
		if i, ok = c.digits(i); !ok {
			return nil, false, false
		}
	}
	lit = c.b[c.pos:i]
	c.pos = i
	return lit, integer, true
}

// digits returns the index past the run of digits at i and whether the
// run has at least one.
func (c *lineCursor) digits(i int) (end int, ok bool) {
	for end = i; end < len(c.b) && '0' <= c.b[end] && c.b[end] <= '9'; end++ {
	}
	return end, end > i
}

// float reads a number the way json.Unmarshal fills a float64; a
// literal out of range (1e999) is json's to reject.
func (c *lineCursor) float() (float64, bool) {
	lit, _, ok := c.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64) // stays on the stack up to 32 bytes (non-escaping conversion); pinned by TestScanJSONLSteadyStateAllocs
	return v, err == nil
}

// scanBitrates is scanCDNs for a bitrate ladder. json.Unmarshal fills
// an int from an integer literal only (2.0 and 1e2 are type errors, a
// 20-digit literal overflows); those are its to reject.
func (d *Decoder) scanBitrates(c *lineCursor) ([]int, bool) {
	if c.word("null") {
		return nil, true
	}
	if !c.eat('[') {
		return nil, false
	}
	list := d.brBuf[:0]
	c.skipSpace()
	for !c.eat(']') {
		if len(list) > 0 && !c.eat(',') {
			return nil, false
		}
		c.skipSpace()
		lit, integer, ok := c.number()
		if !ok || !integer {
			return nil, false
		}
		v, err := strconv.Atoi(string(lit)) // stays on the stack up to 32 bytes (non-escaping conversion); pinned by TestScanJSONLSteadyStateAllocs
		if err != nil {
			return nil, false
		}
		list = append(list, v)
		c.skipSpace()
	}
	d.brBuf = list
	if len(list) == 0 {
		return []int{}, true
	}
	return d.bitrateList(list), true
}

// timestamp reads "YYYY-MM-DDTHH:MM:SS[.f{1,9}]Z", the form
// Time.MarshalJSON gives a UTC time, into the value Time.UnmarshalJSON
// builds for it. Offsets, lower-case t and z, second 60, a day the
// month does not have and longer fractions are json's to judge.
func (c *lineCursor) timestamp() (time.Time, bool) {
	b, ok := c.str()
	if !ok || len(b) < len("2006-01-02T15:04:05Z") ||
		b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' || b[len(b)-1] != 'Z' {
		return time.Time{}, false
	}
	year, month, day := decimal(b[0:4]), decimal(b[5:7]), decimal(b[8:10])
	hour, minute, sec := decimal(b[11:13]), decimal(b[14:16]), decimal(b[17:19])
	nsec := 0
	if frac := b[19 : len(b)-1]; len(frac) > 0 {
		if frac[0] != '.' || len(frac) < len(".0") || len(frac) > len(".000000000") {
			return time.Time{}, false
		}
		nsec = decimal(frac[1:])
		for i := len(frac); i < len(".000000000"); i++ {
			nsec *= 10
		}
	}
	if year < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour < 0 || hour > 23 || minute < 0 || minute > 59 || sec < 0 || sec > 59 || nsec < 0 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC), true
}

// decimal is the value of b's digits (at most nine), or a negative
// number if one of them is not a digit.
func decimal(b []byte) int {
	v := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return -1
		}
		v = v*10 + int(ch-'0')
	}
	return v
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// EncodeJSONL writes records to w as JSON lines.
func EncodeJSONL(w io.Writer, records []record.ViewRecord) error {
	enc := json.NewEncoder(w)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("wire: encoding record %d: %w", i, err)
		}
	}
	return nil
}
