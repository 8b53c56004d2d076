package harness

import (
	"fmt"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Ablation experiments: the design-choice sensitivities DESIGN.md calls
// out. They go beyond the paper's exhibits to show *why* its conclusions
// hold — and where they would flip.
func init() {
	register(Experiment{
		ID:    "ablation-wbuf",
		Title: "Sensitivity to the number of coalescing write buffers",
		Run:   runAblationWriteBuffers,
	})
	register(Experiment{
		ID:    "ablation-packet",
		Title: "Sensitivity to the maximum SAN packet size",
		Run:   runAblationPacketSize,
	})
	register(Experiment{
		ID:    "ablation-cpu",
		Title: "The Zhou et al. disagreement: write-through vs processor speed",
		Run:   runAblationCPUSpeed,
	})
	register(Experiment{
		ID:    "ablation-san",
		Title: "Would a faster SAN rescue mirroring?",
		Run:   runAblationSANSpeed,
	})
}

// runAblationWriteBuffers sweeps the write-buffer count: the paper's
// locality argument rests on six buffers being scarce — with many more,
// scattered stores coalesce longer and mirroring recovers some ground.
func runAblationWriteBuffers(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "ablation-wbuf",
		Title:   "Passive-backup Debit-Credit throughput vs write-buffer count (txns/sec)",
		Headers: []string{"Write buffers", "Version 1", "Version 2", "Version 3"},
		Notes:   append(runNotes(cfg), "the Alpha 21164A has 6"),
	}
	for _, n := range []int{2, 4, 6, 12, 24} {
		params := sim.Default()
		params.WriteBuffers = n
		row := []string{fmt.Sprintf("%d", n)}
		for _, v := range []vista.Version{vista.V1MirrorCopy, vista.V2MirrorDiff, vista.V3InlineLog} {
			res, err := runCell(cfg, benchDC, groupConfig(v, replication.Passive, cfg.DBSize, &params), cfg.DCTxns)
			if err != nil {
				return nil, err
			}
			row = append(row, f0(res.TPS))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runAblationPacketSize sweeps the maximum SAN packet: larger packets
// reward sequential logging even more; tiny packets flatten everything
// toward the per-packet overhead.
func runAblationPacketSize(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "ablation-packet",
		Title:   "Passive-backup Debit-Credit throughput vs max packet size (txns/sec)",
		Headers: []string{"Max packet", "Version 2", "Version 3", "V3 advantage"},
		Notes: append(runNotes(cfg),
			"Memory Channel II caps packets at 32 bytes; smaller caps fragment full buffers"),
	}
	for _, max := range []int{4, 8, 16, 32} {
		params := sim.Default()
		params.MaxPacket = max
		// The coalescing granule stays at the CPU's 32-byte write
		// buffer; caps below 32 split full buffers into several packets
		// — taking away exactly the aggregation advantage logging lives
		// on. (Caps above 32 change nothing: the buffer is the limit.)
		v2, err := runCell(cfg, benchDC, groupConfig(vista.V2MirrorDiff, replication.Passive, cfg.DBSize, &params), cfg.DCTxns)
		if err != nil {
			return nil, err
		}
		v3, err := runCell(cfg, benchDC, groupConfig(vista.V3InlineLog, replication.Passive, cfg.DBSize, &params), cfg.DCTxns)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dB", max), f0(v2.TPS), f0(v3.TPS),
			fmt.Sprintf("%.2fx", v3.TPS/v2.TPS),
		})
	}
	return t, nil
}

// runAblationCPUSpeed reproduces the paper's explanation of why its
// conclusion differs from Zhou et al. (Section 9): on a 66 MHz Pentium the
// straightforward write-through port costs little, because the processor —
// not the SAN — is the bottleneck. Scaling every CPU cost reproduces both
// regimes.
func runAblationCPUSpeed(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:    "ablation-cpu",
		Title: "Straightforward write-through (V0) slowdown vs processor speed",
		Headers: []string{"CPU speed", "Standalone TPS", "Primary-backup TPS",
			"Slowdown"},
		Notes: append(runNotes(cfg),
			"1x ~ the paper's 600MHz Alpha; 1/9x ~ Zhou et al.'s 66MHz Pentium",
			"the paper attributes the disagreement with Zhou et al. to exactly this ratio"),
	}
	for _, scale := range []struct {
		label  string
		factor sim.Dur
	}{
		{"1x (Alpha 600MHz)", 1},
		{"1/3x", 3},
		{"1/9x (Pentium 66MHz)", 9},
	} {
		params := sim.Default()
		scaleCPU(&params, scale.factor)
		alone, err := runCell(cfg, benchDC, groupConfig(vista.V0Vista, replication.Standalone, cfg.DBSize, &params), cfg.DCTxns)
		if err != nil {
			return nil, err
		}
		pb, err := runCell(cfg, benchDC, groupConfig(vista.V0Vista, replication.Passive, cfg.DBSize, &params), cfg.DCTxns)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			scale.label, f0(alone.TPS), f0(pb.TPS),
			fmt.Sprintf("%.2fx", alone.TPS/pb.TPS),
		})
	}
	return t, nil
}

// scaleCPU multiplies every processor-side cost by factor, leaving the SAN
// untouched — a slower machine on the same network.
func scaleCPU(p *sim.Params, factor sim.Dur) {
	p.TxBegin *= factor
	p.TxCommit *= factor
	p.TxAbort *= factor
	p.SetRangeCall *= factor
	p.StoreWord *= factor
	p.LoadWord *= factor
	p.CopyByte *= factor
	p.CompareByte *= factor
	p.Alloc *= factor
	p.Free *= factor
	p.ListOp *= factor
	p.L2Hit *= factor
	p.L3Hit *= factor
	p.MemAccess *= factor
	p.WriteMiss *= factor
	p.TLBFill *= factor
}

// runAblationSANSpeed scales the link: with a SAN an order of magnitude
// faster (relative to the CPU), the write-through penalty shrinks and the
// strategies converge — the regime shift the paper predicts for future
// networks.
func runAblationSANSpeed(cfg RunConfig) (*Table, error) {
	t := &Table{
		ID:      "ablation-san",
		Title:   "Passive-backup Debit-Credit throughput vs SAN speed (txns/sec)",
		Headers: []string{"SAN speed", "Version 0", "Version 2", "Version 3"},
		Notes:   append(runNotes(cfg), "1x = Memory Channel II (80 MB/s peak)"),
	}
	for _, s := range []struct {
		label string
		div   sim.Dur
	}{
		{"1x", 1},
		{"4x", 4},
		{"16x", 16},
	} {
		params := sim.Default()
		params.PacketOverhead /= s.div
		params.PacketPerByte /= s.div
		params.PartialDrainPerByte /= s.div
		params.IOStoreWord /= s.div
		row := []string{s.label}
		for _, v := range []vista.Version{vista.V0Vista, vista.V2MirrorDiff, vista.V3InlineLog} {
			res, err := runCell(cfg, benchDC, groupConfig(v, replication.Passive, cfg.DBSize, &params), cfg.DCTxns)
			if err != nil {
				return nil, err
			}
			row = append(row, f0(res.TPS))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
