// Command dnsquery is a minimal dig-like client for this repository's DNS
// stack.
//
// Usage:
//
//	dnsquery -server 127.0.0.1:5301 www.example.com A
package main

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dnsquery:", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "127.0.0.1:5301", "DNS server IP:port")
	timeout := flag.Duration("timeout", 3*time.Second, "query timeout")
	rd := flag.Bool("rd", true, "set the recursion-desired flag")
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("usage: dnsquery [-server IP:port] <name> [type]")
	}
	name, err := dnswire.CanonicalName(flag.Arg(0))
	if err != nil {
		return err
	}
	qtype := dnswire.TypeA
	if flag.NArg() > 1 {
		qtype, err = dnswire.ParseType(flag.Arg(1))
		if err != nil {
			return err
		}
	}

	var qidBytes [2]byte
	if _, err := crand.Read(qidBytes[:]); err != nil {
		return fmt.Errorf("drawing query ID: %w", err)
	}
	q := dnswire.NewQuery(binary.LittleEndian.Uint16(qidBytes[:]), name, qtype)
	q.Flags.RecursionDesired = *rd
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	u := &transport.UDP{Timeout: *timeout}
	start := time.Now()
	resp, err := u.Exchange(ctx, transport.Addr(*server), q)
	if err != nil {
		return err
	}
	fmt.Print(resp.String())
	fmt.Printf(";; query time: %v, server: %s\n", time.Since(start).Round(time.Microsecond), *server)
	return nil
}
