// Package buildinfo exposes the module version and VCS revision baked
// into the binary by the go toolchain, so every cmd/* binary can answer
// -version and machine-readable reports (COST_<rev>.json, gpsa-lint
// -json) can stamp the revision they were produced from.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Info describes the running binary.
type Info struct {
	// Version is the main module version ("(devel)" for source builds,
	// "dev" when build info is unavailable, e.g. some test binaries).
	Version string
	// Revision is the short VCS revision the binary was built from,
	// "unknown" when the toolchain recorded none. A "+dirty" suffix
	// marks uncommitted changes.
	Revision string
	// GoVersion is the toolchain that built the binary.
	GoVersion string
}

// read extracts Info from debug.ReadBuildInfo; split out so tests can
// feed synthetic build info.
func read(bi *debug.BuildInfo, ok bool) Info {
	info := Info{Version: "dev", Revision: "unknown", GoVersion: runtime.Version()}
	if !ok || bi == nil {
		return info
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if dirty {
			rev += "+dirty"
		}
		info.Revision = rev
	}
	return info
}

// Get returns the binary's build information.
func Get() Info { return read(debug.ReadBuildInfo()) }

// Version returns "<module version> (<revision>, <go version>)" — the
// one-line answer behind every binary's -version flag.
func Version() string {
	i := Get()
	return fmt.Sprintf("%s (%s, %s)", i.Version, i.Revision, i.GoVersion)
}

// Revision returns the short VCS revision, or "unknown".
func Revision() string { return Get().Revision }
