package repro

import (
	"repro/internal/mem"
	"repro/internal/vista"
)

// DBBackings returns the host storage of the first shard's database region
// on every node, the serving node first: the footprint and release tests'
// view of what a node holds.
func DBBackings(c *Cluster) []*mem.Backing {
	g := c.first().Group
	out := []*mem.Backing{g.Primary().Space.ByName(vista.RegionDB).Backing()}
	for i := 0; i < g.Backups(); i++ {
		out = append(out, g.BackupNode(i).Space.ByName(vista.RegionDB).Backing())
	}
	return out
}

// RegionPages returns, for node i of the first shard in DBBackings' order,
// the pages of host storage each region holds, by region name.
func RegionPages(c *Cluster, i int) map[string]int {
	g := c.first().Group
	n := g.Primary()
	if i > 0 {
		n = g.BackupNode(i - 1)
	}
	out := make(map[string]int)
	for _, r := range n.Space.Regions() {
		out[r.Name] = r.Backing().Pages()
	}
	return out
}

// PowerFailPrimary cuts the first shard's serving node's power: unlike
// CrashPrimary, its memory is gone.
func PowerFailPrimary(c *Cluster) error { return c.first().Group.PowerFailNode(-1) }
