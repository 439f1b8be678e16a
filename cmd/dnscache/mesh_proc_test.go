package main

// Multi-process mesh integration test: real dnscache binaries on real
// sockets, joined by -mesh-listen/-mesh-peers, with a real dnsserver
// upstream. Gated behind DNSCACHE_MESH_PROC=1 (run via `make mesh-test`)
// because it builds binaries and binds localhost ports.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

const meshProcZone = `$ORIGIN test.
$TTL 300
@	IN	SOA	ns1.test. hostmaster.test. (
	1 7200 900 1209600 300 )
@	300	IN	NS	ns1
ns1	300	IN	A	127.0.0.1
www	300	IN	A	192.0.2.80
`

// freePort reserves an ephemeral localhost port and returns it. The
// listener is closed before use, which is racy in principle, but these
// tests run alone under `make mesh-test`.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// buildBinary compiles a command into dir and returns the binary path.
func buildBinary(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-race", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startProc launches a binary and guarantees cleanup.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return cmd
}

// udpQuery sends one DNS query to addr and returns the reply.
func udpQuery(t *testing.T, addr string, name dnswire.Name, timeout time.Duration) (*dnswire.Message, error) {
	t.Helper()
	q := dnswire.NewQuery(uint16(time.Now().UnixNano()), name, dnswire.TypeA)
	q.Flags.RecursionDesired = true
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return dnswire.Unpack(buf[:n])
}

func TestMeshMultiProcess(t *testing.T) {
	if os.Getenv("DNSCACHE_MESH_PROC") == "" {
		t.Skip("set DNSCACHE_MESH_PROC=1 (or run `make mesh-test`) to run the multi-process mesh test")
	}

	dir := t.TempDir()
	zonePath := filepath.Join(dir, "test.zone")
	if err := os.WriteFile(zonePath, []byte(meshProcZone), 0o644); err != nil {
		t.Fatal(err)
	}
	dnscacheBin := buildBinary(t, dir, ".", "dnscache")
	dnsserverBin := buildBinary(t, dir, "../dnsserver", "dnsserver")

	upPort := freePort(t)
	upAddr := fmt.Sprintf("127.0.0.1:%d", upPort)
	upstream := startProc(t, dnsserverBin, "-listen", upAddr, "-zone", "test.="+zonePath)

	type inst struct {
		dns, meshAddr, debug string
	}
	var insts [2]inst
	for i := range insts {
		insts[i] = inst{
			dns:      fmt.Sprintf("127.0.0.1:%d", freePort(t)),
			meshAddr: fmt.Sprintf("127.0.0.1:%d", freePort(t)),
			debug:    fmt.Sprintf("127.0.0.1:%d", freePort(t)),
		}
	}
	for i := range insts {
		peer := insts[1-i].meshAddr
		startProc(t, dnscacheBin,
			"-listen", insts[i].dns,
			"-root", upAddr,
			"-upstream-port", fmt.Sprint(upPort),
			"-refresh", "-renewal", "a-lfu",
			"-min-timeout", "50ms", "-max-timeout", "150ms", "-retry-budget", "2",
			"-stats", "0",
			"-mesh-listen", insts[i].meshAddr,
			"-mesh-peers", peer,
			"-mesh-key", "proc-test-key",
			"-debug-addr", insts[i].debug,
		)
	}

	// Both instances must cookie-confirm each other within a few probe
	// intervals.
	for i := range insts {
		waitForConfirmedPeer(t, insts[i].debug, insts[1-i].meshAddr)
	}

	// Instance 0 resolves a name through the live upstream and caches it.
	name := dnswire.MustName("www.test.")
	var warm *dnswire.Message
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		warm, err = udpQuery(t, insts[0].dns, name, time.Second)
		if err == nil && warm.RCode == dnswire.RCodeNoError && len(warm.Answer) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("instance 0 never resolved %s: %v / %+v", name, err, warm)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The upstream dies; instance 1 is cold for the name, so its only
	// path to an answer is a mesh peer fetch from instance 0's cache.
	_ = upstream.Process.Kill()
	_, _ = upstream.Process.Wait()

	resp, err := udpQuery(t, insts[1].dns, name, 5*time.Second)
	if err != nil {
		t.Fatalf("cold instance query during upstream outage: %v", err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) == 0 {
		t.Fatalf("cold instance answered %v with %d answers, want peer-fetched NoError", resp.RCode, len(resp.Answer))
	}

	// The fetch shows up in the server's mesh counters.
	stats := fetchDebugStats(t, insts[1].debug)
	if stats.Mesh.FetchHits == 0 {
		t.Errorf("instance 1 mesh counters = %+v, want fetch_hits > 0", stats.Mesh)
	}
	if stats.Build == nil {
		t.Error("debug stats carry no build section")
	}
}

func waitForConfirmedPeer(t *testing.T, debugAddr, peerAddr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var snap struct {
			Peers []struct {
				Addr      string `json:"addr"`
				State     string `json:"state"`
				Confirmed bool   `json:"confirmed"`
			} `json:"peers"`
		}
		if getJSON("http://"+debugAddr+"/debug/peers", &snap) == nil {
			for _, p := range snap.Peers {
				if p.Addr == peerAddr && p.Confirmed && p.State == "alive" {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never confirmed mesh peer %s: %+v", debugAddr, peerAddr, snap.Peers)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

type debugStatsPayload struct {
	Build map[string]any `json:"build"`
	Mesh  struct {
		FramesIn  uint64 `json:"frames_in"`
		FetchHits uint64 `json:"fetch_hits"`
	} `json:"mesh"`
}

func fetchDebugStats(t *testing.T, debugAddr string) debugStatsPayload {
	t.Helper()
	var p debugStatsPayload
	if err := getJSON("http://"+debugAddr+"/debug/stats", &p); err != nil {
		t.Fatalf("fetch debug stats: %v", err)
	}
	return p
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
