package exper

import (
	"math"
	"testing"
)

// TestMigrationRowsMatchMigrationCost pins the transfer rows the
// link-aware score reads: on the cross-rack policy-comparison fleet,
// whose rack-A/rack-B pairs carry LinkSpec overrides, every row entry
// equals migrationCost(entry, app, id).Seconds() bit for bit, for
// every entry, application and ARM node. Rows are built on first use
// only, and an application without a profile has none.
func TestMigrationRowsMatchMigrationCost(t *testing.T) {
	arts := testSplitArtifacts(t)
	p, err := NewPlatformTopo(arts, PolicyComparisonTopology(), Options{Policy: PolicyLinkAware})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.x86Nodes {
		if p.transfer[e.Index].byApp != nil {
			t.Fatalf("entry %s built rows before any decision", e.Name)
		}
	}
	for _, e := range p.x86Nodes {
		rows := &p.transfer[e.Index]
		for _, a := range arts.Apps {
			row := rows.row(a.Name)
			if len(row) != len(p.armNodes) {
				t.Fatalf("entry %s app %s: row of %d, want %d", e.Name, a.Name, len(row), len(p.armNodes))
			}
			for pos, n := range p.armNodes {
				want := p.migrationCost(e, a.Name, n.Index).Seconds()
				if math.Float64bits(row[pos]) != math.Float64bits(want) {
					t.Fatalf("entry %s app %s node %s: row %v, migrationCost %v", e.Name, a.Name, n.Name, row[pos], want)
				}
			}
			// The far rack sits behind the slow override.
			if near, far := row[0], row[len(row)-1]; !(far > near) {
				t.Fatalf("entry %s app %s: far node %v not costlier than near %v", e.Name, a.Name, far, near)
			}
			if again := rows.row(a.Name); &again[0] != &row[0] {
				t.Fatalf("entry %s app %s: row rebuilt on second use", e.Name, a.Name)
			}
		}
		if rows.row("no-such-app") != nil {
			t.Fatalf("entry %s: an application without a profile has a row", e.Name)
		}
	}
}

// TestDefaultPolicyBuildsNoRows checks that a policy which never
// scores links leaves every transfer row unbuilt.
func TestDefaultPolicyBuildsNoRows(t *testing.T) {
	arts := testSplitArtifacts(t)
	p, err := NewPlatformTopo(arts, PolicyComparisonTopology(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.x86Nodes {
		for _, a := range arts.Apps {
			if _, err := p.servers[e.Index].DecideClass(a.Name, a.KernelName, "critical"); err != nil {
				t.Fatal(err)
			}
		}
		if p.transfer[e.Index].byApp != nil {
			t.Fatalf("default policy built rows on entry %s", e.Name)
		}
	}
}
