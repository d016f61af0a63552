package runstore_test

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shadowmeter/internal/core"
	"shadowmeter/internal/runner"
	"shadowmeter/internal/runstore"
)

// tinyCore is the runner tests' fast trial geometry: the full pipeline,
// small enough that a 2-trial campaign runs in about a second.
func tinyCore() core.Config {
	return core.Config{
		VPsPerGlobalProvider: 2,
		VPsPerCNProvider:     1,
		WebSites:             30,
		WebASes:              8,
		DNSRounds:            1,
		MaxSweepsPerProtocol: 40,
	}
}

// TestDecodeCampaignMatchesJSON runs a 2-trial campaign into a store and
// decodes every frame of its log both ways: the store's record decoder
// must return exactly what encoding/json does.
func TestDecodeCampaignMatchesJSON(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	man := runstore.Manifest{
		Version:    runstore.StoreVersion,
		ConfigHash: runner.CampaignHash(tinyCore()),
		BaseSeed:   11,
		Trials:     2,
		Scale:      "test",
	}
	st, err := runstore.Create(dir, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := runner.Run(runner.Config{Trials: 2, Workers: 2, BaseSeed: 11, Core: tinyCore(), Store: st}); res.StoreErr != nil {
		t.Fatal(res.StoreErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(runstore.LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	offs, err := runstore.LogOffsets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 2 {
		t.Fatalf("log holds %d frames, want 2", len(offs))
	}
	for i, off := range offs {
		n := int64(binary.BigEndian.Uint32(data[off+4:]))
		frame := data[off : off+12+n]
		recs, valid := runstore.DecodeRecords(frame)
		if len(recs) != 1 || valid != int64(len(frame)) {
			t.Fatalf("frame %d: decoded %d records over %d of %d bytes", i, len(recs), valid, len(frame))
		}
		var want runstore.TrialRecord
		if err := json.Unmarshal(frame[12:], &want); err != nil {
			t.Fatalf("frame %d: encoding/json: %v", i, err)
		}
		if !reflect.DeepEqual(recs[0], want) {
			t.Fatalf("frame %d: record differs from encoding/json's", i)
		}
		if len(want.Events) == 0 || len(want.Metrics) == 0 || len(want.Spans) == 0 {
			t.Fatalf("frame %d: trial %d has %d events, %d metrics, %d spans; want all non-empty",
				i, want.Trial, len(want.Events), len(want.Metrics), len(want.Spans))
		}
	}
}
