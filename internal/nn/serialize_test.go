package nn

import (
	"bytes"
	"strings"
	"testing"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := sim.NewRNG(1)
	x, labels := blobs(100, rng)
	net := mlp(t, rng, 2, 8, 2)
	if _, err := Train(net, x, labels, TrainConfig{Epochs: 5, BatchSize: 16, LR: 0.1, Momentum: 0.9}, rng); err != nil {
		t.Fatal(err)
	}
	accBefore := net.Accuracy(x, labels)

	snap := net.Snapshot()

	// A fresh network with the same topology but different weights.
	fresh := mlp(t, sim.NewRNG(99), 2, 8, 2)
	if fresh.Accuracy(x, labels) == accBefore {
		t.Skip("fresh network coincidentally equal; change seed")
	}
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Accuracy(x, labels); got != accBefore {
		t.Errorf("restored accuracy %.3f != original %.3f", got, accBefore)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	rng := sim.NewRNG(2)
	net := mlp(t, rng, 2, 2)
	snap := net.Snapshot()
	orig := snap.Params[0].Data[0]
	net.Params()[0].W.Data[0] = orig + 42
	if snap.Params[0].Data[0] != orig {
		t.Error("snapshot shares storage with the network")
	}
}

func TestRestoreValidation(t *testing.T) {
	rng := sim.NewRNG(3)
	net := mlp(t, rng, 2, 4, 2)
	other := mlp(t, rng, 2, 8, 2) // different hidden width

	if err := net.Restore(other.Snapshot()); err == nil {
		t.Error("mismatched shapes accepted")
	}
	small := mlp(t, rng, 2, 2)
	if err := net.Restore(small.Snapshot()); err == nil {
		t.Error("mismatched tensor count accepted")
	}
	bad := net.Snapshot()
	bad.Params[0].Data = bad.Params[0].Data[:1]
	if err := net.Restore(bad); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestSaveLoadJSON(t *testing.T) {
	rng := sim.NewRNG(5)
	net := mlp(t, rng, 3, 5, 2)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := mlp(t, sim.NewRNG(77), 3, 5, 2)
	if err := fresh.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		q := fresh.Params()[i]
		if !tensor.Equal(p.W, q.W, 0) {
			t.Fatalf("tensor %d differs after save/load", i)
		}
	}
	if err := fresh.Load(strings.NewReader("{broken")); err == nil {
		t.Error("corrupt JSON accepted")
	}
}
