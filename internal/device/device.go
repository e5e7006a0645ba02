// Package device models the playback side of the management plane
// (§2, §4.2): the five platform categories of Fig. 5 (browser, mobile
// app, streaming set-top box, smart TV, gaming console), the concrete
// device models within each, the SDK / application-framework zoo that
// publishers must build against, and the device→protocol compatibility
// constraints that couple packaging decisions to device support (e.g.
// Apple devices requiring HLS).
package device

import (
	"fmt"
	"time"

	"vmp/internal/manifest"
	"vmp/internal/simclock"
)

// Platform is one of the five platform categories of Fig. 5.
type Platform int

// Platform categories. Browser covers browser playback on any device
// (including mobile browsers, per §4.2); the other four are app-based.
const (
	Browser Platform = iota
	Mobile
	SetTop
	SmartTV
	Console
)

// Platforms lists all platform categories in the paper's presentation
// order.
var Platforms = []Platform{Browser, Mobile, SetTop, SmartTV, Console}

// String returns the display name used in figures.
func (p Platform) String() string {
	switch p {
	case Browser:
		return "Browser"
	case Mobile:
		return "Mobile"
	case SetTop:
		return "SetTop"
	case SmartTV:
		return "SmartTV"
	case Console:
		return "Console"
	default:
		return fmt.Sprintf("Platform(%d)", int(p))
	}
}

// AppBased reports whether playback on this platform goes through a
// publisher app built on a device SDK (vs a browser player).
func (p Platform) AppBased() bool { return p != Browser }

// Model identifies a concrete device model or, for browsers, a player
// technology (the within-platform split of Fig. 10a is by player tech:
// HTML5, Flash, Silverlight).
type Model struct {
	Name     string   // e.g. "Roku", "iPhone", "HTML5"
	Platform Platform // category the model belongs to
	OS       string   // operating system reported in telemetry
	SDK      string   // SDK family apps are built with; empty for browsers
	Apple    bool     // subject to the Apple HLS requirement
}

// Registry is the fixed device-model catalogue of the simulation,
// in a stable order (analytics index into it by name).
var Registry = []Model{
	// Browser player technologies (Fig 10a).
	{Name: "HTML5", Platform: Browser, OS: "any"},
	{Name: "Flash", Platform: Browser, OS: "any"},
	{Name: "Silverlight", Platform: Browser, OS: "any"},
	// Mobile devices (Fig 10b tracks iOS vs Android view-hours).
	{Name: "iPhone", Platform: Mobile, OS: "iOS", SDK: "AVFoundation", Apple: true},
	{Name: "iPad", Platform: Mobile, OS: "iOS", SDK: "AVFoundation", Apple: true},
	{Name: "AndroidPhone", Platform: Mobile, OS: "Android", SDK: "ExoPlayer"},
	{Name: "AndroidTablet", Platform: Mobile, OS: "Android", SDK: "ExoPlayer"},
	// Streaming set-top boxes (Fig 10c: Roku dominant; AppleTV and
	// FireTV non-negligible).
	{Name: "Roku", Platform: SetTop, OS: "RokuOS", SDK: "RokuSDK"},
	{Name: "AppleTV", Platform: SetTop, OS: "tvOS", SDK: "TVMLKit", Apple: true},
	{Name: "FireTV", Platform: SetTop, OS: "FireOS", SDK: "FireAppBuilder"},
	{Name: "Chromecast", Platform: SetTop, OS: "CastOS", SDK: "CastSDK"},
	// Smart TVs.
	{Name: "SamsungTV", Platform: SmartTV, OS: "Tizen", SDK: "TizenAVPlay"},
	{Name: "LGTV", Platform: SmartTV, OS: "webOS", SDK: "webOSMedia"},
	{Name: "VizioTV", Platform: SmartTV, OS: "SmartCast", SDK: "SmartCastSDK"},
	// Gaming consoles.
	{Name: "Xbox", Platform: Console, OS: "XboxOS", SDK: "XDK"},
	{Name: "PlayStation", Platform: Console, OS: "Orbis", SDK: "PSMedia"},
}

// registryIndex maps a model name to its position in Registry.
var registryIndex = func() map[string]int {
	index := make(map[string]int, len(Registry))
	for i, m := range Registry {
		index[m.Name] = i
	}
	return index
}()

// ByName returns the registered model with the given name.
func ByName(name string) (Model, bool) {
	i, ok := registryIndex[name]
	if !ok {
		return Model{}, false
	}
	return Registry[i], true
}

// OfPlatform returns the registered models in the given category.
func OfPlatform(p Platform) []Model {
	var out []Model
	for _, m := range Registry {
		if m.Platform == p {
			out = append(out, m)
		}
	}
	return out
}

// Supports reports whether the model can play the protocol. The matrix
// encodes the constraints §2 and §4.1 describe: Apple devices play HLS
// (recent ones gained limited fMP4/DASH support, which we expose as
// HLS-only to match the study period); Flash pairs with HDS and RTMP;
// Silverlight with SmoothStreaming; modern app SDKs and HTML5 (MSE)
// handle HLS and DASH, with SmoothStreaming on Microsoft-lineage
// devices.
func (m Model) Supports(p manifest.Protocol) bool {
	if m.Apple {
		return p == manifest.HLS
	}
	switch m.Name {
	case "HTML5":
		return p == manifest.HLS || p == manifest.DASH || p == manifest.Smooth
	case "Flash":
		// Flash pairs natively with HDS and RTMP; commercial Flash
		// players (JW Player, OSMF plugins) also played HLS.
		return p == manifest.HDS || p == manifest.RTMP || p == manifest.HLS
	case "Silverlight":
		return p == manifest.Smooth
	case "Xbox":
		return p == manifest.Smooth || p == manifest.DASH
	case "Chromecast":
		return p == manifest.HLS || p == manifest.DASH || p == manifest.Smooth
	default:
		// Android, Roku, FireTV, smart TVs, PlayStation: HLS + DASH,
		// and Smooth on Roku/smart TVs whose SDKs ship a Smooth stack.
		switch p {
		case manifest.HLS, manifest.DASH:
			return true
		case manifest.Smooth:
			return m.Name == "Roku" || m.Platform == SmartTV
		default:
			return false
		}
	}
}

// SDKVersion identifies one version of one SDK family: the unit the §5
// Unique-SDKs complexity metric counts ("the number of unique versions
// of SDKs and browsers supported by a publisher across all devices").
type SDKVersion struct {
	Family  string
	Version string
}

// String renders the version as reported in telemetry.
func (v SDKVersion) String() string { return v.Family + "/" + v.Version }

// sdkEpoch anchors version numbering so versions are stable across the
// study window.
var sdkEpoch = time.Date(2014, time.January, 1, 0, 0, 0, 0, time.UTC)

// VersionAt returns the newest version of the model's SDK family
// available at time t. SDK families release quarterly; versions are
// numbered <major>.<minor> from the family's epoch.
func (m Model) VersionAt(t time.Time) SDKVersion {
	family := m.SDK
	if family == "" {
		family = m.Name // browsers: the player tech is the "SDK"
	}
	quarters := int(t.Sub(sdkEpoch) / (91 * simclock.Day))
	if quarters < 0 {
		quarters = 0
	}
	if quarters < len(versionNames) {
		return SDKVersion{Family: family, Version: versionNames[quarters]}
	}
	return SDKVersion{Family: family, Version: versionName(quarters)}
}

// versionNames holds the version of each of the first 80 quarters
// (to 2034), so that every version in the study is one shared string.
var versionNames = func() (names [80]string) {
	for q := range names {
		names[q] = versionName(q)
	}
	return names
}()

func versionName(quarters int) string {
	return fmt.Sprintf("%d.%d", 1+quarters/4, quarters%4)
}

// VersionsInUse returns the SDK versions a publisher must support for
// this model at time t given that users lag up to lagQuarters releases
// behind (§2: "users may take time to upgrade their device SDKs").
// The newest version is always included.
func (m Model) VersionsInUse(t time.Time, lagQuarters int) []SDKVersion {
	if lagQuarters < 0 {
		lagQuarters = 0
	}
	out := make([]SDKVersion, 0, lagQuarters+1)
	for lag := 0; lag <= lagQuarters; lag++ {
		v := m.VersionAt(t.Add(-time.Duration(lag) * 91 * simclock.Day))
		// Quarter arithmetic can collide at the epoch clamp; keep the
		// list duplicate-free.
		dup := false
		for _, have := range out {
			if have == v {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// UserAgent fabricates the HTTP user-agent string telemetry reports
// for browser views, or the app identifier for app views.
func (m Model) UserAgent(v SDKVersion) string {
	if m.Platform == Browser {
		return "Mozilla/5.0 (compatible; " + m.Name + "/" + v.Version + "; player)"
	}
	return m.Name + "App/" + v.Version + " (" + m.OS + "; " + v.Family + ")"
}
