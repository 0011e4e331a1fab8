package invariant

import (
	"strings"
	"testing"

	"sturgeon/internal/coordinator"
)

// status builds a coordinator status that passes FleetStatus.Validate
// against its own budget (statusBudgetW), so only the checker's clauses
// judge it.
func status(epoch int, poolW float64, nodes ...coordinator.NodeStatus) *coordinator.FleetStatus {
	return &coordinator.FleetStatus{
		Schema:  coordinator.Schema,
		Epoch:   epoch,
		BudgetW: statusBudgetW,
		PoolW:   poolW,
		Nodes:   nodes,
	}
}

const (
	budgetW       = 200.0
	statusBudgetW = 1000.0
)

func node(id string, capW float64, lastEpoch int) coordinator.NodeStatus {
	return coordinator.NodeStatus{NodeID: id, CapW: capW, LastEpoch: lastEpoch, Healthy: true}
}

// wantOne asserts the checker recorded exactly one violation, naming
// the clause by substring.
func wantOne(t *testing.T, k *Checker, clause string) {
	t.Helper()
	v := k.Violations()
	if len(v) != 1 || k.DroppedViolations() != 0 {
		t.Fatalf("violations %q (dropped %d), want exactly one %q", v, k.DroppedViolations(), clause)
	}
	if !strings.Contains(v[0], clause) {
		t.Fatalf("violation %q does not name %q", v[0], clause)
	}
}

func TestCleanViewHasNoViolations(t *testing.T) {
	k := New(budgetW, 0)
	k.CheckSecond(1, []NodeView{{ID: "node-000", EffCapW: 100}, {ID: "node-001", EffCapW: 100}})
	k.ObserveStatus(2, status(1, 20, node("node-000", 90, 1), node("node-001", 90, 1)))
	k.CheckSecond(2, []NodeView{
		{ID: "node-000", EffCapW: 90, LeaseCapW: 90, FloorW: 60, ExpiresAtS: 10},
		// Degraded but still inside its lease and before expiry.
		{ID: "node-001", EffCapW: 80, LeaseCapW: 90, FloorW: 60, Degraded: true, ExpiresAtS: 10},
	})
	k.ObserveStatus(3, status(2, 20, node("node-000", 90, 2), node("node-001", 90, 2)))
	k.ObserveStatus(4, nil)
	if v := k.Violations(); v != nil || k.DroppedViolations() != 0 {
		t.Fatalf("clean run flagged %q (dropped %d)", v, k.DroppedViolations())
	}
	if k.Checks() != 4 {
		t.Fatalf("Checks = %d, want 4 (nil status is not a check)", k.Checks())
	}
	if k.MaxSumCapsW() != 200 || k.MaxExcessW() != 0 {
		t.Fatalf("MaxSumCapsW/MaxExcessW = %v/%v, want 200/0", k.MaxSumCapsW(), k.MaxExcessW())
	}
}

func TestEffectiveCapAboveLease(t *testing.T) {
	k := New(budgetW, 0)
	k.CheckSecond(5, []NodeView{{ID: "node-000", EffCapW: 110, LeaseCapW: 100}})
	wantOne(t, k, "above lease")
}

func TestDegradedCapAboveFloorPastExpiry(t *testing.T) {
	k := New(budgetW, 0)
	view := []NodeView{{ID: "node-000", EffCapW: 90, LeaseCapW: 100, FloorW: 60, Degraded: true, ExpiresAtS: 10}}
	k.CheckSecond(9, view) // ratchet still has time
	if v := k.Violations(); v != nil {
		t.Fatalf("degraded node flagged before its lease expiry: %q", v)
	}
	k.CheckSecond(10, view)
	wantOne(t, k, "above floor")
}

func TestBudgetSumBeforeAnyStatus(t *testing.T) {
	k := New(budgetW, 0)
	k.CheckSecond(1, []NodeView{{ID: "node-000", EffCapW: 110}, {ID: "node-001", EffCapW: 110}})
	wantOne(t, k, "exceeds budget")
	if k.MaxExcessW() != 20 {
		t.Fatalf("MaxExcessW = %v, want 20", k.MaxExcessW())
	}
}

func TestCoordinatorCapsPlusPoolOverBudget(t *testing.T) {
	k := New(budgetW, 0)
	// Valid against the status's own budget, over the checker's.
	k.ObserveStatus(1, status(1, 10, node("node-000", 120, 1), node("node-001", 100, 1)))
	wantOne(t, k, "caps+pool")
}

func TestCoordinatorEpochRegression(t *testing.T) {
	k := New(budgetW, 0)
	k.ObserveStatus(1, status(5, 0, node("node-000", 100, 5)))
	k.ObserveStatus(2, status(4, 0, node("node-000", 100, 5)))
	wantOne(t, k, "coordinator epoch moved backwards")
}

func TestNodeEpochRegression(t *testing.T) {
	k := New(budgetW, 0)
	k.ObserveStatus(1, status(5, 0, node("node-000", 100, 5)))
	k.ObserveStatus(2, status(6, 0, node("node-000", 100, 3)))
	wantOne(t, k, "node epoch moved backwards")
}

func TestInvalidStatus(t *testing.T) {
	k := New(budgetW, 0)
	st := status(1, 0, node("node-000", 100, 1))
	st.Schema = "bogus"
	k.ObserveStatus(1, st)
	wantOne(t, k, "status invalid")
}

func TestKeepBoundCountsOverflow(t *testing.T) {
	k := New(budgetW, 2)
	for i := 0; i < 5; i++ {
		k.CheckSecond(float64(i), []NodeView{{ID: "node-000", EffCapW: 110, LeaseCapW: 100}})
	}
	if len(k.Violations()) != 2 || k.DroppedViolations() != 3 {
		t.Fatalf("kept %d dropped %d, want 2/3", len(k.Violations()), k.DroppedViolations())
	}
	if !strings.HasPrefix(k.Violations()[0], "t=0 ") || !strings.HasPrefix(k.Violations()[1], "t=1 ") {
		t.Fatalf("keep bound must retain the earliest violations: %q", k.Violations())
	}
}
