package analysis

import "testing"

func TestNoAlloc(t *testing.T) {
	runFixture(t, NoAlloc, "noalloc_a")
}

func TestErrCode(t *testing.T) {
	runFixture(t, ErrCode, "errcode_a")
}

func TestErrCodeCrossPackage(t *testing.T) {
	runFixture(t, ErrCode, "errcode_dep", "errcode_srv")
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}
