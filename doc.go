// Package vmp is a full reproduction of "Understanding Video
// Management Planes" (Akhtar, Nam, et al., IMC 2018) as a Go library:
// a synthetic-but-calibrated video delivery ecosystem (publishers,
// packaging, manifests, CDNs, devices, players, telemetry) and the
// management-plane characterization pipeline the paper runs over it.
//
// The paper's dataset is proprietary (Conviva's view-level telemetry
// from >100 publishers over 27 months), so this library generates a
// deterministic synthetic population whose structure matches every
// anchor the paper reports, then re-derives all of the paper's tables
// and figures from the generated view records. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-versus-measured values.
//
// # Quick start
//
//	study := vmp.New(vmp.Config{})
//	study.Render(os.Stdout, "2b")   // % of view-hours per protocol
//	study.RenderAll(os.Stdout)      // every table and figure
//
// The heavy lifting lives in internal packages: internal/ecosystem
// (population generator), internal/manifest (HLS/DASH/Smooth/HDS),
// internal/cdnsim (origins, edges), internal/player (ABR
// playback), internal/telemetry (records, dataset, sensor), and the analysis
// packages internal/analytics, internal/complexity, and
// internal/syndication.
package vmp
