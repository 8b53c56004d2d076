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
