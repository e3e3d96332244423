// End-to-end tests of the shared settle step as the fleet reaches it: the
// lease protocol driven by hand, so a completion can carry what no healthy
// worker sends.
package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/store"
)

// postFleet sends one fleet message and decodes a 200 answer into resp (when
// non-nil), returning the status code.
func postFleet(t *testing.T, url string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode == http.StatusOK && resp != nil {
		if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
			t.Fatalf("decode %s answer: %v", url, err)
		}
	}
	return hresp.StatusCode
}

// TestFleetCompleteBadStatsFails registers, leases and completes by hand. A
// done completion whose stats are missing, null, or valid JSON of the wrong
// shape must fail its job: nothing enters the result cache or the disk
// cache, and the journal's last word on the job is a failed record — never a
// done one with zero stats.
func TestFleetCompleteBadStatsFails(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	srv, hs := startService(server.Config{Workers: -1, QueueDepth: 8, Store: st})
	base := hs.URL

	var reg fleet.RegisterResponse
	if code := postFleet(t, base+"/v1/fleet/workers", fleet.RegisterRequest{Name: "by-hand"}, &reg); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	cases := []struct {
		name  string
		stats json.RawMessage
	}{
		{"missing", nil},
		{"null", json.RawMessage(`null`)},
		{"array", json.RawMessage(`[]`)},
		{"wrong field type", json.RawMessage(`{"wall_ms":"x"}`)},
	}
	ids := make([]string, len(cases))
	for i, c := range cases {
		sub, resp := submitJob(t, base, tinySeed(300+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit = %d", c.name, resp.StatusCode)
		}
		ids[i] = sub.ID
		var grant fleet.LeaseGrant
		if code := postFleet(t, base+"/v1/fleet/lease",
			fleet.LeaseRequest{WorkerID: reg.WorkerID, WaitMS: 1000}, &grant); code != http.StatusOK {
			t.Fatalf("%s: lease = %d", c.name, code)
		}
		if grant.JobID != sub.ID {
			t.Fatalf("%s: leased job %s, want %s", c.name, grant.JobID, sub.ID)
		}
		done := fleet.CompleteRequest{WorkerID: reg.WorkerID, Status: fleet.StatusDone,
			Layout: []byte("layout bytes"), Stats: c.stats}
		if code := postFleet(t, base+"/v1/fleet/leases/"+grant.LeaseID+"/complete", done, nil); code != http.StatusOK {
			t.Fatalf("%s: complete = %d", c.name, code)
		}
		got := getStatus(t, base, sub.ID)
		if got.State != server.StateFailed || got.Result != nil || !strings.Contains(got.Error, "stats") {
			t.Errorf("%s: job = %s (error %q, result %+v), want failed over its stats",
				c.name, got.State, got.Error, got.Result)
		}
	}

	stats := getStatsz(t, base)
	if stats.Cache.Entries != 0 || stats.Store == nil || stats.Store.Blobs.Entries != 0 {
		t.Errorf("bad completions were cached: memory %d entries, store %+v", stats.Cache.Entries, stats.Store)
	}
	if stats.Fleet.RemoteCompletions != 0 {
		t.Errorf("remote completions = %d, want 0", stats.Fleet.RemoteCompletions)
	}

	hs.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := store.OpenWAL(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[string]store.Kind)
	for _, r := range recs {
		last[r.Job] = r.Kind
	}
	for i, id := range ids {
		if last[id] != store.KindFailed {
			t.Errorf("%s: last journal record for %s is %v, want failed", cases[i].name, id, last[id])
		}
	}
}
