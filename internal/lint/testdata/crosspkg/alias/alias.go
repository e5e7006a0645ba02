// Package alias wraps telemetry accessors behind one more exported hop:
// dependents receive frozen-dataset views without ever calling
// telemetry themselves. Before whole-program summaries this hop
// laundered the taint; the cross-package fixture test pins that it no
// longer does.
package alias

import "vmp/internal/telemetry"

// Records returns the dataset's backing view records, through an
// unexported helper so the in-package fixed point has to carry the
// taint one extra level before it is exported.
func Records(d *telemetry.Dataset) []telemetry.ViewRecord {
	return rows(d)
}

func rows(d *telemetry.Dataset) []telemetry.ViewRecord { return d.All() }
