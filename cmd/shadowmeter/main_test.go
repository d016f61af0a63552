package main

import (
	"strings"
	"testing"
)

// TestFlagValidation pins the flag-interaction contract: exactly one
// document on stdout per mode, no flag silently ignored, no campaign
// without a store.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    options
		wantErr string // substring of the error, "" = valid
	}{
		{"single run defaults", options{trials: 1}, ""},
		{"single run with json-stats and metrics", options{trials: 1, jsonStats: true, metrics: true}, ""},
		{"plain batch", options{trials: 4}, ""},
		{"batch with merged telemetry", options{trials: 4, metricsJSON: true}, ""},
		{"campaign", options{trials: 4, out: "camp"}, ""},
		{"campaign of one", options{trials: 1, out: "camp"}, ""},
		{"campaign resume", options{trials: 4, out: "camp", resume: true}, ""},
		{"mitigations alone", options{trials: 1, mitigations: true}, ""},
		{"mitigations with phase1-only tolerated", options{trials: 1, mitigations: true, phase1Only: true}, ""},
		{"batch with watch", options{trials: 4, watch: "127.0.0.1:0"}, ""},
		{"campaign of one with watch", options{trials: 1, out: "camp", watch: "127.0.0.1:0"}, ""},
		{"batch with occupancy json", options{trials: 4, occupancyJSON: "occ.json"}, ""},
		{"batch with flight dir", options{trials: 4, flightDir: "dumps"}, ""},
		{"fully observed campaign", options{trials: 4, out: "camp", watch: ":0", occupancyJSON: "occ.json", flightDir: "dumps", metricsJSON: true}, ""},
		{"shard campaign", options{trials: 4, out: "camp", shard: "0/2"}, ""},
		{"last shard", options{trials: 4, out: "camp", shard: "1/2"}, ""},
		{"one shard per trial", options{trials: 4, out: "camp", shard: "3/4"}, ""},
		{"degenerate single shard", options{trials: 4, out: "camp", shard: "0/1"}, ""},
		{"shard resume", options{trials: 4, out: "camp", shard: "1/2", resume: true}, ""},

		{"resume without out", options{trials: 4, resume: true}, "-resume requires -out"},
		{"shard without out", options{trials: 4, shard: "0/2"}, "-shard requires -out"},
		{"shard not a fraction", options{trials: 4, out: "camp", shard: "2"}, "malformed"},
		{"shard with garbage", options{trials: 4, out: "camp", shard: "0/2x"}, "malformed"},
		{"shard empty halves", options{trials: 4, out: "camp", shard: "/"}, "malformed"},
		{"shard zero shards", options{trials: 4, out: "camp", shard: "0/0"}, "at least 1"},
		{"shard negative count", options{trials: 4, out: "camp", shard: "0/-2"}, "at least 1"},
		{"shard index at count", options{trials: 4, out: "camp", shard: "2/2"}, "out of range"},
		{"shard index past count", options{trials: 4, out: "camp", shard: "5/2"}, "out of range"},
		{"shard negative index", options{trials: 4, out: "camp", shard: "-1/2"}, "out of range"},
		{"more shards than trials", options{trials: 2, out: "camp", shard: "0/4"}, "at least one shard would be empty"},
		{"single run with watch", options{trials: 1, watch: "127.0.0.1:0"}, "-watch requires batch mode"},
		{"single run with occupancy json", options{trials: 1, occupancyJSON: "occ.json"}, "-occupancy-json requires batch mode"},
		{"single run with flight dir", options{trials: 1, flightDir: "dumps"}, "-flight-dir requires batch mode"},
		{"mitigations with watch", options{trials: 1, mitigations: true, watch: ":0"}, "-mitigations"},
		{"mitigations with out", options{trials: 1, out: "camp", mitigations: true}, "-mitigations"},
		{"batch with phase1-only", options{trials: 4, phase1Only: true}, "-phase1-only"},
		{"campaign with phase1-only", options{trials: 1, out: "camp", phase1Only: true}, "-phase1-only"},
		{"batch with json-stats", options{trials: 4, jsonStats: true}, "-json-stats"},
		{"campaign with json-stats", options{trials: 1, out: "camp", jsonStats: true}, "-json-stats"},
		{"batch with metrics table", options{trials: 4, metrics: true}, "-metrics is incompatible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestBatchMode(t *testing.T) {
	if (options{trials: 1}).batch() {
		t.Error("trials=1 without -out must run the single-run path")
	}
	if !(options{trials: 2}).batch() {
		t.Error("trials=2 must run the batch path")
	}
	if !(options{trials: 1, out: "camp"}).batch() {
		t.Error("-out must force batch mode even for one trial")
	}
}
