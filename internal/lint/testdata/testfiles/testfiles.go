// Package testfiles is the driver fixture for the applies-to-tests
// rule: every run loads _test.go files, and an analyzer's findings
// there survive only if the analyzer declares Tests. The violations
// are in testfiles_test.go.
package testfiles

import "os"

// Remove deletes a file.
func Remove(path string) error { return os.Remove(path) }
