package bench

import (
	"strings"
	"testing"
	"time"
)

// wellBehavedServer is a synthetic report that passes the gate: at 0.5x
// neither leg sheds or breaches; at 3x the admitted leg sheds with a
// bounded tail and the naive leg breaches the SLO.
func wellBehavedServer() *ServerReport {
	rep := NewReport[ServerRun, ServerCell]("server", ServerRun{SLONs: int64(50 * time.Millisecond)})
	ms := int64(time.Millisecond)
	rep.Cells = []ServerCell{
		{Multiplier: 0.5, Admission: true, Completed: 1000, P999Ns: 20 * ms},
		{Multiplier: 0.5, Admission: false, Completed: 1000, P999Ns: 25 * ms},
		{Multiplier: 3, Admission: true, Completed: 2000, Shed: 4000, P999Ns: 60 * ms},
		{Multiplier: 3, Admission: false, Completed: 5500, P999Ns: 2000 * ms, SLOBreaches: 5000},
	}
	return rep
}

func TestServerGate(t *testing.T) {
	if bad := ServerGate(wellBehavedServer()); len(bad) != 0 {
		t.Fatalf("well-behaved report flagged: %v", bad)
	}
	for _, tc := range []struct {
		name   string
		mutate func(cells []ServerCell)
		want   string
	}{
		{"admitted OOM", func(c []ServerCell) { c[0].FailedOOM = 3 }, "x0.5: 3 OOM failures"},
		{"admitted top cell sheds nothing", func(c []ServerCell) { c[2].Shed = 0 }, "x3 shed nothing"},
		{"naive top cell neither breaches nor OOMs", func(c []ServerCell) { c[3].SLOBreaches = 0 }, "naive cell x3 neither breached"},
	} {
		rep := wellBehavedServer()
		tc.mutate(rep.Cells)
		bad := ServerGate(rep)
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: gate returned %v, want one finding containing %q", tc.name, bad, tc.want)
		}
	}
}
