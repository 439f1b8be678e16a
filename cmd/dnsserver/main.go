// Command dnsserver runs an authoritative DNS server over UDP and TCP,
// serving RFC 1035 master files.
//
// Usage:
//
//	dnsserver -listen 127.0.0.1:5300 -zone example.com=example.com.zone
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// zoneFlags collects repeated -zone origin=file arguments.
type zoneFlags []string

func (z *zoneFlags) String() string { return strings.Join(*z, ",") }

func (z *zoneFlags) Set(v string) error {
	*z = append(*z, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dnsserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var zones zoneFlags
	listen := flag.String("listen", "127.0.0.1:5300", "UDP and TCP address to serve on")
	noIRRs := flag.Bool("no-apex-ns", false, "do not attach apex NS/glue to answers (ablation)")
	delay := flag.Duration("delay", 0, "artificial per-query service delay (emulates WAN RTT in localhost experiments)")
	flag.Var(&zones, "zone", "origin=masterfile, repeatable")
	flag.Parse()
	if len(zones) == 0 {
		return fmt.Errorf("at least one -zone origin=file is required")
	}

	var loaded []*zone.Zone
	for _, spec := range zones {
		origin, file, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -zone %q, want origin=file", spec)
		}
		name, err := dnswire.CanonicalName(origin)
		if err != nil {
			return err
		}
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		z, err := zone.Parse(f, name)
		f.Close()
		if err != nil {
			return err
		}
		if err := z.Validate(); err != nil {
			return err
		}
		loaded = append(loaded, z)
		fmt.Printf("loaded zone %s (%d records)\n", name, z.RecordCount())
	}

	srv := authserver.New(loaded...)
	srv.AttachApexNS = !*noIRRs
	handler := transport.HandlerFunc(srv.HandleQuery)
	if *delay > 0 {
		inner := handler
		handler = func(q *dnswire.Message) *dnswire.Message {
			time.Sleep(*delay)
			return inner(q)
		}
	}

	// Delayed handlers hold their worker slot for the full delay, so give
	// the experiment servers plenty of parallel headroom.
	udp := &transport.UDPServer{Handler: handler, MaxInflight: 4096}
	addr, err := udp.Listen(*listen)
	if err != nil {
		return err
	}
	defer udp.Close()
	tcp := &transport.TCPServer{Handler: handler}
	if _, err := tcp.Listen(addr); err != nil {
		return err
	}
	defer tcp.Close()
	fmt.Printf("serving on %s (udp+tcp)\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}
