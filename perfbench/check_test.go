package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro"
	"repro/serclient"
)

// report builds a small combinational report whose U is the sum of its
// gates' contributions.
func report() *ser.Report {
	return &ser.Report{U: 6, Gates: []ser.GateReport{{Name: "g1", U: 1}, {Name: "g2", U: 3}, {Name: "g3", U: 2}}}
}

// answerOf is the checked answer for a report, as the analyze-cold op
// builds it.
func answerOf(rep *ser.Report, ranked []ser.SusceptibilityEntry) rankedAnswer {
	a := rankedAnswer{name: "c", u: rep.U, ranked: ranked}
	for _, g := range rep.Gates {
		a.gateU = append(a.gateU, g.U)
	}
	return a
}

func TestAnswerChecks(t *testing.T) {
	rep := report()
	if err := answerOf(rep, rep.Susceptibility()).check(); err != nil {
		t.Fatalf("sound answer rejected: %v", err)
	}
	bad := report()
	bad.U = 6.5 // no longer the sum of its contributions
	if err := answerOf(bad, rep.Susceptibility()).check(); err == nil {
		t.Error("U that differs from its contributions' sum passed")
	}
	unsorted := rep.Susceptibility()
	unsorted[0], unsorted[1] = unsorted[1], unsorted[0]
	if err := answerOf(rep, unsorted).check(); err == nil {
		t.Error("unsorted ranking passed")
	}
	short := rep.Susceptibility()
	short[len(short)-1].CumShare = 0.9
	if err := checkRanking(short, rep.U, true); err == nil {
		t.Error("cumulative share ending at 0.9 passed")
	}
}

func TestServedAnswerMustEqualLibrary(t *testing.T) {
	rep := report()
	ref := libRef{u: rep.U, gates: rep.Gates, ranked: rep.Susceptibility()}
	wire := func() *serclient.SusceptibilityResponse {
		r := &serclient.SusceptibilityResponse{Circuit: "c", U: rep.U}
		for _, e := range ref.ranked {
			r.Entries = append(r.Entries, serclient.SusceptibilityEntry{Name: e.Name, U: e.U, Share: e.Share, CumShare: e.CumShare})
		}
		return r
	}
	j := job{circuit: "c"}
	if _, err := decodeJob(j, ref, wire(), nil); err != nil {
		t.Fatalf("equal answer rejected: %v", err)
	}
	off := wire()
	off.Entries[1].U *= 1 + 1e-15
	if _, err := decodeJob(j, ref, off, nil); err == nil {
		t.Error("answer one ulp off the library's passed")
	}
}

// TestCorruptedAnswerCountsAsFailed injects a wrong answer into the
// closed loop: the op must be counted failed and printed with its
// input, while sound ops pass.
func TestCorruptedAnswerCountsAsFailed(t *testing.T) {
	mk := func(input string, corrupt bool) op {
		return op{input: input, run: func(ctx context.Context, id string, traced bool) (answer, traceData, error) {
			rep := report()
			if corrupt {
				rep.U *= 2
			}
			return answerOf(rep, rep.Susceptibility()), nil, nil
		}}
	}
	var log bytes.Buffer
	outs := runLoop(context.Background(), 1, 0, func(int) []op {
		return []op{mk("good-1", false), mk("corrupt", true), mk("good-2", false)}
	}, false, &log)
	if len(outs) != 3 {
		t.Fatalf("ran %d ops, want one round of 3", len(outs))
	}
	for _, o := range outs {
		if o.failed != (o.input == "corrupt") {
			t.Errorf("op %s: failed = %v", o.input, o.failed)
		}
	}
	if !strings.Contains(log.String(), "FAILED op 1 (corrupt)") {
		t.Errorf("failure not reported with its input; log: %q", log.String())
	}
}
