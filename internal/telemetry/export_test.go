package telemetry

// The serial builder and the dataset comparison, for the tests outside
// the package that hold the range freeze to it on generated records.
var (
	SerialNewDataset = serialNewDataset
	SerialMerge      = serialMerge
	DatasetDiff      = datasetDiff
	Pointers         = pointers
)
