package ftdc

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// FuzzFTDCReader: the decoder is total — arbitrary bytes (including
// truncated and bit-flipped valid streams) must produce a diagnosed
// error or a clean decode, never a panic, unbounded allocation, or hang.
// Decodable prefixes of writer output must round-trip losslessly, and
// every decoded sample must load into an obs.Metrics.
func FuzzFTDCReader(f *testing.F) {
	// Seed with real writer output at a few schema shapes.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteSample([]obs.Metric{{Key: "ctr/ubf/balls_tested", Value: 42}})
	w.WriteSample([]obs.Metric{{Key: "ctr/ubf/balls_tested", Value: 99}})
	w.WriteSample([]obs.Metric{
		{Key: "ctr/ubf/balls_tested", Value: 100},
		{Key: "lat/serve/b17", Value: 3},
		{Key: "lat/serve/sum", Value: 12345},
	})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("FTDC3DWB"))
	f.Add(append(append([]byte{}, magic[:]...), version))
	f.Add(append(append(append([]byte{}, magic[:]...), version), 'S', 0x01, 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Every decoded sample loads into a Metrics without panicking,
		// and each key Load keeps reads back at its sample value.
		for _, s := range samples {
			var m obs.Metrics
			m.Load(s.Metrics)
			for _, kept := range m.Snapshot(nil) {
				if v, ok := s.Value(kept.Key); !ok || v != kept.Value {
					t.Fatalf("loaded %s=%d, sample has %d (present %v)", kept.Key, kept.Value, v, ok)
				}
			}
		}
		// A clean decode must re-encode to a stream that decodes to the
		// same samples — the writer and reader agree on the format.
		var re bytes.Buffer
		w := NewWriter(&re)
		for _, s := range samples {
			if werr := w.WriteSample(s.Metrics); werr != nil {
				t.Fatalf("decoded sample rejected by writer: %v", werr)
			}
		}
		if len(samples) == 0 {
			return
		}
		back, rerr := ReadAll(bytes.NewReader(re.Bytes()))
		if rerr != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", rerr)
		}
		if len(back) != len(samples) {
			t.Fatalf("re-encode changed sample count: %d -> %d", len(samples), len(back))
		}
		for i := range samples {
			if len(back[i].Metrics) != len(samples[i].Metrics) {
				t.Fatalf("sample %d changed width", i)
			}
			for j := range samples[i].Metrics {
				if back[i].Metrics[j] != samples[i].Metrics[j] {
					t.Fatalf("sample %d metric %d changed: %v -> %v",
						i, j, samples[i].Metrics[j], back[i].Metrics[j])
				}
			}
		}
	})
}
