package cpufeat

import "testing"

func TestBestIsAvailable(t *testing.T) {
	if !Available(Best()) {
		t.Fatalf("Best() = %s is not Available", Best())
	}
	if !Available(Generic) {
		t.Fatal("Generic must always be available")
	}
}

func TestSetActiveRoundTrip(t *testing.T) {
	orig := Active()
	defer SetActive(orig)
	prev, err := SetActive(Generic)
	if err != nil {
		t.Fatalf("SetActive(Generic): %v", err)
	}
	if prev != orig {
		t.Fatalf("SetActive returned prev %s, want %s", prev, orig)
	}
	if Active() != Generic {
		t.Fatalf("Active() = %s after forcing generic", Active())
	}
	if _, err := SetActive(Family(99)); err == nil {
		t.Fatal("SetActive of an unknown family must fail")
	}
	if Active() != Generic {
		t.Fatal("failed SetActive must not change the selection")
	}
}

func TestAvailabilityImplications(t *testing.T) {
	// The dispatch tables assume AVX-512 hosts can also run the AVX2
	// kernels (the f32 narrow-N shapes route there).
	if Available(AVX512) && !Available(AVX2) {
		t.Fatal("AVX512 available but AVX2 not: dispatch assumes the implication")
	}
	for _, f := range []Family{Generic, AVX2, AVX512} {
		if f.String() == "" {
			t.Fatalf("family %d has empty name", f)
		}
		if got, err := parseFamily(f.String()); err != nil || got != f {
			t.Fatalf("parseFamily(%q) = %v, %v", f.String(), got, err)
		}
	}
}
