package core

import (
	"strings"
	"testing"
)

func TestMitigationStudy(t *testing.T) {
	results := MitigationStudy(21)
	if len(results) != 4 {
		t.Fatalf("modes = %d", len(results))
	}
	byMode := map[MitigationMode]MitigationResult{}
	for _, r := range results {
		byMode[r.Mode] = r
	}
	base := byMode[MitigationNone]
	ech := byMode[MitigationECH]
	doh := byMode[MitigationDoH]
	odoh := byMode[MitigationODoH]

	if base.OnWireObservations == 0 {
		t.Fatal("baseline produced no on-wire observations — study has no signal")
	}
	// The seed-21 baseline exactly. OnWireObservations counts client
	// packets a tap sniffs on unsampled paths too, the one case where
	// Device.Observe parses a packet it will not record.
	want := MitigationResult{Mode: MitigationNone, DecoysSent: 5040, OnWireObservations: 2877,
		ProblematicPaths: 896, UnsolicitedEvents: 3454, DistinctClientsSeen: 315}
	if base != want {
		t.Errorf("baseline = %+v, want %+v", base, want)
	}
	// ECH: the wire goes dark for TLS. The only on-wire observations left
	// come from nothing — ECH hellos carry no SNI, and no other decoys run.
	if ech.OnWireObservations != 0 {
		t.Errorf("ECH on-wire observations = %d, want 0", ech.OnWireObservations)
	}
	// ...but destination-side shadowing persists: problematic paths remain.
	if ech.ProblematicPaths == 0 {
		t.Error("ECH removed destination-side shadowing too — wrong model")
	}
	// DoH: the wire sees no QNAMEs either...
	if doh.OnWireObservations != 0 {
		t.Errorf("DoH on-wire observations = %d, want 0", doh.OnWireObservations)
	}
	// ...while the resolvers keep shadowing at scale (the dominant mode).
	if doh.ProblematicPaths == 0 || doh.UnsolicitedEvents == 0 {
		t.Errorf("DoH eliminated resolver-side shadowing: %+v", doh)
	}
	// ODoH: names still leak to the resolvers (events persist)...
	if odoh.UnsolicitedEvents == 0 {
		t.Error("ODoH eliminated shadowing entirely — wrong model")
	}
	if odoh.OnWireObservations != 0 {
		t.Errorf("ODoH on-wire observations = %d, want 0", odoh.OnWireObservations)
	}
	// ...but the resolvers' origin visibility collapses to the single relay
	// (the paper's "split visibility" recommendation).
	if base.DistinctClientsSeen < 20 {
		t.Errorf("baseline distinct clients = %d, want many", base.DistinctClientsSeen)
	}
	if odoh.DistinctClientsSeen > 5 {
		t.Errorf("ODoH distinct clients = %d, want ~1 per Resolver_h member", odoh.DistinctClientsSeen)
	}

	// Encryption must not *increase* shadowing.
	if ech.UnsolicitedEvents > base.UnsolicitedEvents || doh.UnsolicitedEvents > base.UnsolicitedEvents {
		t.Errorf("mitigated runs exceed baseline: base=%d ech=%d doh=%d",
			base.UnsolicitedEvents, ech.UnsolicitedEvents, doh.UnsolicitedEvents)
	}
	out := RenderMitigationStudy(results)
	if !strings.Contains(out, "TLS+ECH") || !strings.Contains(out, "DNS-over-HTTPS") {
		t.Errorf("render incomplete: %q", out)
	}
}
