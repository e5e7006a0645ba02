package analytics

// The row references' dimension and the series comparison, for the
// tests outside the package that hold the study's figures to the
// references (the references themselves are exported from
// reference_test.go).
var (
	ProtocolDim        = protocolDim
	ApproxEq           = approxEq
	RequireSeriesEqual = requireSeriesEqual
)
