package obs

import (
	"strings"
	"testing"
)

// TestRegistryWith covers the label-scoped views the control-room
// service books per-tenant metrics through: base labels are stamped on
// every series, the store is shared (one /metrics shows all tenants),
// and a view's snapshot filters out other tenants' series.
func TestRegistryWith(t *testing.T) {
	root := NewRegistry()
	east := root.With("tenant", "east")
	west := root.With("tenant", "west")

	east.Counter("requests_total").Add(3)
	west.Counter("requests_total").Add(5)
	root.Counter("process_uptime_ticks").Inc()
	east.Counter("requests_total", "code", "200").Inc()

	// The root sees everything, with the views' labels applied.
	snap := root.Snapshot()
	byKey := map[string]int64{}
	for _, c := range snap.Counters {
		byKey[c.Name+"|"+strings.Join(c.Labels, ",")] = c.Value
	}
	want := map[string]int64{
		"requests_total|tenant,east":          3,
		"requests_total|tenant,west":          5,
		"requests_total|tenant,east,code,200": 1,
		"process_uptime_ticks|":               1,
	}
	for k, v := range want {
		if byKey[k] != v {
			t.Errorf("root snapshot %s = %d, want %d (have %v)", k, byKey[k], v, byKey)
		}
	}

	// A view's snapshot only carries its own series.
	esnap := east.Snapshot()
	for _, c := range esnap.Counters {
		if !labelsContain(c.Labels, []string{"tenant", "east"}) {
			t.Errorf("east snapshot leaked series %s %v", c.Name, c.Labels)
		}
	}
	if got := len(esnap.Counters); got != 2 {
		t.Errorf("east snapshot has %d counters, want 2", got)
	}

	// Same (name, labels) through view and root resolve to one series.
	root.Counter("requests_total", "tenant", "east").Inc()
	if got := east.Counter("requests_total").Value(); got != 4 {
		t.Errorf("shared series value %d, want 4", got)
	}

	// Nested views accumulate base labels.
	deep := east.With("shard", "0")
	deep.Counter("batches_total").Inc()
	found := false
	for _, c := range root.Snapshot().Counters {
		if c.Name == "batches_total" &&
			labelsContain(c.Labels, []string{"tenant", "east", "shard", "0"}) {
			found = true
		}
	}
	if !found {
		t.Error("nested view's series missing both base labels in root snapshot")
	}
}

func TestWithOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd label list did not panic")
		}
	}()
	NewRegistry().With("tenant")
}
