// Package record defines the per-view telemetry record — the one
// schema every layer of the pipeline speaks. It is a leaf package with
// no intra-module dependencies so that both the storage/analysis
// substrate (internal/telemetry) and the wire codecs (internal/wire)
// can share the type without an import cycle: telemetry's sensor posts
// through wire's client, the serving plane ingests through wire's
// negotiated decoders, and wire's binary frames decode straight into
// this layout.
package record

import "time"

// ViewRecord is the metadata of one video view, mirroring the dataset
// schema described in §3: anonymized publisher ID, a URL that retains
// the manifest file extension, device model and OS, user agent (browser
// views) or SDK and SDK version (app views), the CDN(s) used, the set
// of available bitrates, viewing time, and delivery performance
// (average bitrate and rebuffering time). The syndication fields carry
// §6's per-(publisher, video) owned/syndicated flag.
type ViewRecord struct {
	Timestamp time.Time `json:"ts"`
	Publisher string    `json:"pub"`   // anonymized publisher ID
	VideoID   string    `json:"video"` // anonymized video ID
	URL       string    `json:"url"`   // manifest URL, extension retained

	Device     string `json:"device"`           // e.g. "Roku", "iPhone", "HTML5"
	OS         string `json:"os"`               // e.g. "iOS", "RokuOS"
	UserAgent  string `json:"ua,omitempty"`     // browser views
	SDK        string `json:"sdk,omitempty"`    // app views: SDK family
	SDKVersion string `json:"sdkver,omitempty"` // app views: SDK version

	CDNs     []string `json:"cdns"` // CDNs used during the view (§3 fn. 4)
	Bitrates []int    `json:"bitrates"`
	ISP      string   `json:"isp"`
	ConnType string   `json:"conn"`
	Geo      string   `json:"geo"` // e.g. "US-CA"
	Live     bool     `json:"live"`

	Syndicated bool   `json:"synd"`            // owned vs syndicated (§6)
	ContentID  string `json:"content"`         // underlying title identity
	Owner      string `json:"owner,omitempty"` // owning publisher

	ViewSec        float64 `json:"viewsec"`
	AvgBitrateKbps float64 `json:"avgkbps"`
	RebufferSec    float64 `json:"rebufsec"`

	// Failed marks a view that never started or aborted on a fatal
	// error — the raw material of failure triaging (§5).
	Failed bool `json:"failed,omitempty"`

	// Weight is the number of real views this record represents. The
	// paper's dataset is a census of >100 billion views; the simulation
	// stores a stratified per-publisher sample and carries the
	// expansion factor here so view and view-hour totals are unbiased.
	// Zero means 1 (an unsampled record).
	Weight float64 `json:"weight,omitempty"`
}

// Views returns the number of real views the record represents.
func (r *ViewRecord) Views() float64 {
	if r.Weight <= 0 {
		return 1
	}
	return r.Weight
}

// ViewHours returns the view's contribution to view-hours, the paper's
// primary measure, expanded by the sampling weight.
func (r *ViewRecord) ViewHours() float64 { return r.Views() * r.ViewSec / 3600 }
