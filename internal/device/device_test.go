package device

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"vmp/internal/manifest"
	"vmp/internal/simclock"
)

func TestPlatformStrings(t *testing.T) {
	want := map[Platform]string{
		Browser: "Browser", Mobile: "Mobile", SetTop: "SetTop",
		SmartTV: "SmartTV", Console: "Console",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Platform(99).String() != "Platform(99)" {
		t.Error("unknown platform should format numerically")
	}
}

func TestFivePlatforms(t *testing.T) {
	if len(Platforms) != 5 {
		t.Fatalf("paper defines 5 platform categories, registry has %d", len(Platforms))
	}
	if Browser.AppBased() {
		t.Error("browser is not app-based")
	}
	for _, p := range Platforms[1:] {
		if !p.AppBased() {
			t.Errorf("%v should be app-based", p)
		}
	}
}

func TestRegistryCoversAllPlatforms(t *testing.T) {
	for _, p := range Platforms {
		if len(OfPlatform(p)) == 0 {
			t.Errorf("no models registered for platform %v", p)
		}
	}
	// The devices named in the paper must exist.
	for _, name := range []string{"Roku", "AppleTV", "FireTV", "iPhone", "iPad",
		"SamsungTV", "Xbox", "HTML5", "Flash", "Silverlight", "Chromecast"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("device %q missing from registry", name)
		}
	}
	if _, ok := ByName("Betamax"); ok {
		t.Error("ByName should miss unknown devices")
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Registry {
		if seen[m.Name] {
			t.Errorf("duplicate model name %q", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestAppleDevicesRequireHLS(t *testing.T) {
	// §2: "Apple's devices only support HLS".
	for _, name := range []string{"iPhone", "iPad", "AppleTV"} {
		m, _ := ByName(name)
		if !m.Supports(manifest.HLS) {
			t.Errorf("%s must support HLS", name)
		}
		for _, p := range []manifest.Protocol{manifest.DASH, manifest.Smooth, manifest.HDS} {
			if m.Supports(p) {
				t.Errorf("%s must not support %v", name, p)
			}
		}
	}
}

func TestPlayerTechProtocols(t *testing.T) {
	flash, _ := ByName("Flash")
	if !flash.Supports(manifest.HDS) || !flash.Supports(manifest.RTMP) {
		t.Error("Flash pairs with HDS and RTMP")
	}
	if !flash.Supports(manifest.HLS) {
		t.Error("Flash players (JW Player et al.) also played HLS")
	}
	if flash.Supports(manifest.DASH) {
		t.Error("Flash should not play DASH")
	}
	sl, _ := ByName("Silverlight")
	if !sl.Supports(manifest.Smooth) || sl.Supports(manifest.DASH) {
		t.Error("Silverlight is SmoothStreaming-only")
	}
	html5, _ := ByName("HTML5")
	for _, p := range []manifest.Protocol{manifest.HLS, manifest.DASH, manifest.Smooth} {
		if !html5.Supports(p) {
			t.Errorf("HTML5/MSE should support %v", p)
		}
	}
	xbox, _ := ByName("Xbox")
	if !xbox.Supports(manifest.Smooth) {
		t.Error("Xbox is a Microsoft device; it plays SmoothStreaming")
	}
}

func TestEveryModelPlaysSomething(t *testing.T) {
	for _, m := range Registry {
		if !slices.ContainsFunc(manifest.HTTPProtocols, m.Supports) {
			// Flash plays HDS which is in the HTTP list; everything
			// must support at least one HTTP protocol.
			t.Errorf("%s plays no HTTP streaming protocol", m.Name)
		}
	}
}

func TestVersionAtAdvances(t *testing.T) {
	m, _ := ByName("Roku")
	early := m.VersionAt(simclock.StudyStart)
	late := m.VersionAt(simclock.StudyEnd)
	if early == late {
		t.Fatalf("SDK version did not advance over 27 months: %v", early)
	}
	if early.Family != "RokuSDK" {
		t.Errorf("family = %q", early.Family)
	}
}

func TestVersionAtClampsBeforeEpoch(t *testing.T) {
	m, _ := ByName("Roku")
	v := m.VersionAt(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC))
	if v.Version != "1.0" {
		t.Fatalf("pre-epoch version = %q, want 1.0", v.Version)
	}
}

func TestBrowserSDKFamilyIsPlayerTech(t *testing.T) {
	html5, _ := ByName("HTML5")
	if v := html5.VersionAt(simclock.StudyStart); v.Family != "HTML5" {
		t.Fatalf("browser SDK family = %q, want HTML5", v.Family)
	}
}

func TestVersionsInUse(t *testing.T) {
	m, _ := ByName("AndroidPhone")
	vs := m.VersionsInUse(simclock.StudyEnd, 3)
	if len(vs) != 4 {
		t.Fatalf("lag 3 should give 4 versions, got %d (%v)", len(vs), vs)
	}
	seen := map[SDKVersion]bool{}
	for _, v := range vs {
		if seen[v] {
			t.Fatalf("duplicate version %v", v)
		}
		seen[v] = true
	}
	// Newest version must be included.
	if vs[0] != m.VersionAt(simclock.StudyEnd) {
		t.Error("newest version missing")
	}
	if got := m.VersionsInUse(simclock.StudyEnd, -5); len(got) != 1 {
		t.Errorf("negative lag should clamp to newest-only, got %v", got)
	}
}

func TestVersionsInUseDedupAtEpoch(t *testing.T) {
	m, _ := ByName("Roku")
	// Near the epoch every lagged lookup clamps to 1.0.
	vs := m.VersionsInUse(sdkEpoch.Add(24*time.Hour), 8)
	if len(vs) != 1 {
		t.Fatalf("epoch-clamped versions should dedup to 1, got %v", vs)
	}
}

func TestUserAgent(t *testing.T) {
	html5, _ := ByName("HTML5")
	ua := html5.UserAgent(SDKVersion{Family: "HTML5", Version: "8.1"})
	if !strings.HasPrefix(ua, "Mozilla/5.0") {
		t.Errorf("browser UA should be Mozilla-style: %q", ua)
	}
	roku, _ := ByName("Roku")
	ua = roku.UserAgent(SDKVersion{Family: "RokuSDK", Version: "9.2"})
	if !strings.Contains(ua, "RokuApp/9.2") || !strings.Contains(ua, "RokuOS") {
		t.Errorf("app identifier malformed: %q", ua)
	}
	// The concatenation equals the fmt forms it replaced, for every
	// registered model.
	v := SDKVersion{Family: "ExoPlayer", Version: "2.3"}
	for _, m := range Registry {
		want := fmt.Sprintf("%sApp/%s (%s; %s)", m.Name, v.Version, m.OS, v.Family)
		if m.Platform == Browser {
			want = fmt.Sprintf("Mozilla/5.0 (compatible; %s/%s; player)", m.Name, v.Version)
		}
		if got := m.UserAgent(v); got != want {
			t.Errorf("%s.UserAgent = %q, fmt gives %q", m.Name, got, want)
		}
	}
}

func TestSDKVersionString(t *testing.T) {
	v := SDKVersion{Family: "ExoPlayer", Version: "2.3"}
	if v.String() != "ExoPlayer/2.3" {
		t.Fatalf("String() = %q", v.String())
	}
}
