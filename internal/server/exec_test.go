package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"hybp/internal/pipeline"
	"hybp/internal/sim"
)

// TestSimJobMatchesExecutePoint pins every shape of sim job — a
// context-switching single thread, a no_switch solo run, and a bench2
// SMT-2 mix — to the cluster worker's entry point: each reported thread's
// raw measurement must be byte-for-byte what sim.ExecutePoint returns for
// the matching mechanism PointSpec, and its baseline IPC what it returns
// for the baseline PointSpec.
func TestSimJobMatchesExecutePoint(t *testing.T) {
	const cycles, warmup, interval, seed = 300_000, 60_000, 100_000, 7
	_, ts := testServer(t, Config{}, nil)

	hybpK := sim.Mech(sim.MechHyBP)
	hybpK.KeysEntries = 256
	for _, tc := range []struct {
		name string
		body string
		spec sim.PointSpec // Mech is filled per run
		mech sim.MechSpec
	}{
		{
			"single",
			`{"sim":{"bench":"gcc","mech":"hybp","keys_entries":256,"cycles":300000,"warmup":60000,"interval":100000,"seed":7}}`,
			sim.PointSpec{Kind: sim.PointSingle, Bench: "gcc", Interval: interval},
			hybpK,
		},
		{
			"no_switch",
			`{"sim":{"bench":"xz","mech":"partition","no_switch":true,"cycles":300000,"warmup":60000,"seed":7}}`,
			sim.PointSpec{Kind: sim.PointSolo, Bench: "xz"},
			sim.Mech(sim.MechPartition),
		},
		{
			"bench2",
			`{"sim":{"bench":"gcc","bench2":"xz","mech":"replication","cycles":300000,"warmup":60000,"interval":100000,"seed":7}}`,
			sim.PointSpec{Kind: sim.PointSMT, A: "gcc", B: "xz", Interval: interval},
			sim.Mech(sim.MechReplication),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Cycles, tc.spec.Warmup, tc.spec.RootSeed = cycles, warmup, seed
			mechRaw := executeThreads(t, tc.spec, tc.mech)
			baseRaw := executeThreads(t, tc.spec, sim.Mech(sim.MechBaseline))

			_, body, ji := postJob(t, ts, tc.body)
			final := waitDone(t, ts, ji.ID)
			if final.Status != StatusDone {
				t.Fatalf("status = %s (err %q), submit body %s", final.Status, final.Error, body)
			}
			var res SimJobResult
			if err := json.Unmarshal(final.Result, &res); err != nil {
				t.Fatalf("decode result: %v", err)
			}
			if len(res.Threads) != len(mechRaw) {
				t.Fatalf("%d threads, ExecutePoint has %d", len(res.Threads), len(mechRaw))
			}
			for i, th := range res.Threads {
				if !bytes.Equal(th.Raw, mechRaw[i]) {
					t.Errorf("thread %d raw:\n job  %s\n want %s", i, th.Raw, mechRaw[i])
				}
				if want := threadIPC(t, baseRaw[i]); th.BaselineIPC != want {
					t.Errorf("thread %d baseline IPC = %v, ExecutePoint %v", i, th.BaselineIPC, want)
				}
			}
		})
	}
}

// executeThreads runs spec on mech through sim.ExecutePoint and returns
// each measured thread's JSON exactly as the point encoded it.
func executeThreads(t *testing.T, spec sim.PointSpec, mech sim.MechSpec) []json.RawMessage {
	t.Helper()
	spec.Mech = mech
	in, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.ExecutePoint(in)
	if err != nil {
		t.Fatalf("ExecutePoint(%s): %v", in, err)
	}
	if spec.Kind != sim.PointSMT {
		return []json.RawMessage{out}
	}
	var res struct{ Threads []json.RawMessage }
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("decode SMT result: %v", err)
	}
	return res.Threads
}

// threadIPC decodes one thread's raw measurement to its IPC.
func threadIPC(t *testing.T, raw json.RawMessage) float64 {
	t.Helper()
	var tr pipeline.ThreadResult
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("decode thread: %v", err)
	}
	return tr.IPC()
}
