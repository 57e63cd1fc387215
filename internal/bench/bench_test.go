package bench

import "testing"

func TestCurrentHost(t *testing.T) {
	h := CurrentHost()
	if h == (Host{}) {
		t.Fatal("CurrentHost returned the zero host")
	}
	if h.NumCPU < 1 || h.OS == "" || h.Arch == "" {
		t.Errorf("incomplete host: %+v", h)
	}
	if h != CurrentHost() {
		t.Error("CurrentHost is not stable within a process")
	}
}
