package faultinject

import (
	"io"
	"math/rand"
	"net"
	"testing"
)

// TestChaosConnDeterminism pins the injector contract: the same seed
// over the same traffic produces the same fault schedule.
func TestChaosConnDeterminism(t *testing.T) {
	blob := make([]byte, 8*1024)
	rand.New(rand.NewSource(7)).Read(blob)
	run := func() (int, error) {
		a, b := net.Pipe()
		defer a.Close()
		go func() {
			b.Write(blob)
			b.Close()
		}()
		cc := NewChaosConn(a, ChaosConfig{
			Seed: 99, PartialReads: true, CutAfter: 2048, CutJitter: 512,
		})
		n, err := io.Copy(io.Discard, cc)
		return int(n), err
	}
	n1, err1 := run()
	n2, err2 := run()
	if n1 != n2 {
		t.Fatalf("same seed, different cut points: %d vs %d", n1, n2)
	}
	if err1 == nil || err2 == nil {
		t.Fatalf("cut budget of 2048+512 over 8192 bytes did not trigger: %v, %v", err1, err2)
	}
}
