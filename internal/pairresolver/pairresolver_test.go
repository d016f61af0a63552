package pairresolver

import (
	"testing"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/vantage"
	"shadowmeter/internal/wire"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func TestPairAddr(t *testing.T) {
	cases := map[string]string{
		"1.1.1.1":         "1.1.1.4",
		"8.8.8.8":         "8.8.8.11",
		"114.114.114.114": "114.114.114.117",
		"9.9.9.253":       "9.9.9.2", // wraps past 254
	}
	for in, want := range cases {
		got := PairAddr(wire.MustParseAddr(in))
		if got != wire.MustParseAddr(want) {
			t.Errorf("PairAddr(%s) = %v, want %s", in, got, want)
		}
		if got == wire.MustParseAddr(in) {
			t.Errorf("pair equals resolver for %s", in)
		}
		if !got.SameSlash24(wire.MustParseAddr(in)) {
			t.Errorf("pair %v left the /24 of %s", got, in)
		}
	}
}

// buildScreenWorld: two VPs — one behind a clean path, one behind a path
// with an interception device.
func buildScreenWorld(t *testing.T) (*netsim.Network, *vantage.Platform, *InterceptorTap, *vantage.VP, *vantage.VP) {
	t.Helper()
	cleanRouter := &netsim.Router{Name: "clean", Addr: wire.AddrFrom(10, 0, 0, 1)}
	dirtyRouter := &netsim.Router{Name: "dirty", Addr: wire.AddrFrom(10, 0, 0, 2)}
	tap := &InterceptorTap{SpoofAddr: wire.MustParseAddr("203.0.113.99")}
	dirtyRouter.AttachTap(tap)

	cleanVPAddr := wire.MustParseAddr("100.64.0.1")
	dirtyVPAddr := wire.MustParseAddr("100.64.0.2")
	n := netsim.New(netsim.Config{Start: t0, Path: func(src, dst wire.Addr) []*netsim.Router {
		switch {
		case src == dirtyVPAddr || dst == dirtyVPAddr:
			return []*netsim.Router{dirtyRouter}
		default:
			return []*netsim.Router{cleanRouter}
		}
	}})

	// A real resolver answers on its service address; the pair address has
	// no host at all.
	resolverAddr := wire.MustParseAddr("77.88.8.8")
	res := netsim.NewHost(n, resolverAddr)
	res.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		q, err := dnswire.Decode(payload)
		if err != nil {
			return nil
		}
		resp := dnswire.NewResponse(q, dnswire.RcodeNoError)
		raw, _ := resp.Encode()
		return raw
	})

	prov := &vantage.Provider{Name: "p", Market: vantage.Global}
	cleanVP := &vantage.VP{Provider: prov, Host: netsim.NewHost(n, cleanVPAddr), Addr: cleanVPAddr}
	dirtyVP := &vantage.VP{Provider: prov, Host: netsim.NewHost(n, dirtyVPAddr), Addr: dirtyVPAddr}
	p := &vantage.Platform{VPs: []*vantage.VP{cleanVP, dirtyVP}}
	return n, p, tap, cleanVP, dirtyVP
}

func TestScreenRemovesInterceptedVP(t *testing.T) {
	n, p, tap, cleanVP, dirtyVP := buildScreenWorld(t)
	report := Screen(n, p, []wire.Addr{wire.MustParseAddr("77.88.8.8")}, 0)
	if report.Tested != 2 {
		t.Errorf("tested = %d", report.Tested)
	}
	if report.Removed != 1 {
		t.Fatalf("removed = %d, want 1", report.Removed)
	}
	if report.RemovedAddrs[0] != dirtyVP.Addr {
		t.Errorf("removed %v, want dirty VP", report.RemovedAddrs[0])
	}
	if len(p.VPs) != 1 || p.VPs[0] != cleanVP {
		t.Errorf("platform VPs = %v", p.VPs)
	}
	if tap.Answered() == 0 {
		t.Error("interceptor never fired — test world broken")
	}
}

func TestInterceptorSpoofsRealResolverToo(t *testing.T) {
	n, _, _, _, dirtyVP := buildScreenWorld(t)
	// The dirty VP queries the REAL resolver; the interceptor races the
	// true answer with a spoofed one carrying its SpoofAddr.
	q := dnswire.NewQuery(7, "victim.example", dnswire.TypeA)
	payload, _ := q.Encode()
	var answers []wire.Addr
	dirtyVP.SendUDPRequest(n, wire.Endpoint{Addr: wire.MustParseAddr("77.88.8.8"), Port: 53}, payload, netsim.UDPRequestOpts{
		Replier: netsim.ReplyFuncs{OnReply: func(n *netsim.Network, resp []byte) {
			if m, err := dnswire.Decode(resp); err == nil {
				for _, a := range m.Answers {
					answers = append(answers, a.Addr)
				}
			}
		}},
	})
	n.RunUntilIdle()
	// The spoofed response wins the race (injected at hop 1, shorter path).
	if len(answers) != 1 || answers[0] != wire.MustParseAddr("203.0.113.99") {
		t.Errorf("answers = %v, want spoofed 203.0.113.99", answers)
	}
}

func TestCleanPathSurvives(t *testing.T) {
	n, p, _, cleanVP, _ := buildScreenWorld(t)
	p.VPs = []*vantage.VP{cleanVP}
	report := Screen(n, p, []wire.Addr{wire.MustParseAddr("77.88.8.8")}, 0)
	if report.Removed != 0 || len(p.VPs) != 1 {
		t.Errorf("clean VP removed: %+v", report)
	}
}
