package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer runs over its fixture package; linttest fails the test on
// any mismatch between findings and the fixtures' "// want" expectations.
// The count assertions additionally pin the suppression mechanism: every
// fixture carries exactly one justified //lint: site (which must be
// suppressed, not silently missed) and one unjustified site (which must
// stay a finding).

func runFixture(t *testing.T, a *lint.Analyzer, wantReported, wantSuppressed int) {
	t.Helper()
	res := linttest.Run(t, a, filepath.Join("testdata", a.Name))
	if res.Reported != wantReported {
		t.Errorf("%s: %d findings reported, want %d", a.Name, res.Reported, wantReported)
	}
	if res.Suppressed != wantSuppressed {
		t.Errorf("%s: %d findings suppressed, want %d", a.Name, res.Suppressed, wantSuppressed)
	}
}

func TestActorShare(t *testing.T)  { runFixture(t, lint.ActorShare, 4, 1) }
func TestColAlias(t *testing.T)    { runFixture(t, lint.ColAlias, 6, 1) }
func TestDeterminism(t *testing.T) { runFixture(t, lint.Determinism, 5, 1) }
func TestCtxBlock(t *testing.T)    { runFixture(t, lint.CtxBlock, 6, 1) }
func TestSyncErr(t *testing.T)     { runFixture(t, lint.SyncErr, 8, 2) }
func TestNoalloc(t *testing.T)     { runFixture(t, lint.Noalloc, 16, 1) }
func TestFrameProto(t *testing.T)  { runFixture(t, lint.FrameProto, 4, 1) }
