// Package errcheck exercises the errcheck analyzer: bare, deferred,
// and go-spawned calls that drop an error return are flagged; explicit
// assignment and the contractually never-failing writers are not. The
// tests load this package once under a vmp/internal/ pose path (in
// scope) and once under an external path (out of scope).
package errcheck

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
)

func dropped(f *os.File) {
	f.Close() // want errcheck "call to f.Close drops its error"
}

func deferredDrop(f *os.File) {
	defer f.Close() // want errcheck "deferred call to f.Close drops its error"
}

func goDrop(f *os.File) {
	go f.Sync() // want errcheck "go call to f.Sync drops its error"
}

func acknowledged(f *os.File) {
	_ = f.Close() // explicit assignment acknowledges the drop
}

func printing(v int) {
	fmt.Println(v) // fmt print family: exempt by convention
}

func neverFailingWriters(sb *strings.Builder, buf *bytes.Buffer, cw *csv.Writer) string {
	sb.WriteString("a")     // strings.Builder documents a nil error
	buf.WriteString("b")    // bytes.Buffer panics rather than failing
	cw.Write([]string{"c"}) // csv.Writer latches; surfaced via Flush+Error
	h := fnv.New64a()
	h.Write([]byte("d")) // hash.Hash.Write never returns an error
	_ = h.Sum64()
	return sb.String() + buf.String()
}
