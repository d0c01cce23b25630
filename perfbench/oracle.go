package main

import (
	"bytes"
	"fmt"

	"turbosyn"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// checkResult is the per-operation output check of the engine workloads,
// independent of the engine's own bookkeeping:
//   - every LUT of the mapped and the realized network has at most lutK
//     fanins;
//   - the mapped network simulates like the input on vecs, with initial
//     states aligned through OrigOf;
//   - the realized network's clock period is the reported phi;
//   - the emitted BLIF reads back with the input's PI and PO counts.
func checkResult(in *netlist.Circuit, res *turbosyn.Result, blif []byte, vecs [][]bool) error {
	if res.Mapped == nil || res.Realized == nil {
		return fmt.Errorf("missing mapped or realized network")
	}
	for _, c := range []*netlist.Circuit{res.Mapped, res.Realized} {
		if err := lutsBounded(c); err != nil {
			return err
		}
	}
	if err := sim.CompareAligned(in, res.Mapped, res.OrigOf, vecs, 8); err != nil {
		return fmt.Errorf("mapped network is not equivalent: %w", err)
	}
	if p := retime.Period(res.Realized); p != res.Phi {
		return fmt.Errorf("realized period %d, reported phi %d", p, res.Phi)
	}
	return readsBack(blif, len(in.PIs), len(in.POs))
}

// lutsBounded fails when a gate of c has more than lutK fanins.
func lutsBounded(c *netlist.Circuit) error {
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate && len(n.Fanins) > lutK {
			return fmt.Errorf("LUT %q has %d inputs, K=%d", n.Name, len(n.Fanins), lutK)
		}
	}
	return nil
}

// readsBack parses emitted BLIF and compares its interface with the
// input's.
func readsBack(blif []byte, pis, pos int) error {
	back, err := netlist.ReadBLIF(bytes.NewReader(blif))
	if err != nil {
		return fmt.Errorf("emitted BLIF does not read back: %w", err)
	}
	if len(back.PIs) != pis || len(back.POs) != pos {
		return fmt.Errorf("emitted BLIF has %d PIs/%d POs, input %d/%d", len(back.PIs), len(back.POs), pis, pos)
	}
	return nil
}
