// Package seam applies a fault plan at the interfaces the product
// already consumes: the resolver, the blocklist backend, the antivirus
// prober, the outbound-spool journal, the WAL appender and the fsync
// hooks of the WAL and the snapshot saver. Each decorator consults its
// target once per call, immediately before delegating, so the set's RNG
// draws in the order the calls arrive and a failed call never reaches
// the backend.
//
// A nil *faults.Set returns the input unchanged: a deployment without a
// fault plan runs exactly the undecorated code.
//
// The decorators live here rather than in faults because reputation
// still consults faults itself and filters depends on reputation, so
// faults cannot import filters.
package seam

import (
	"fmt"
	"os"

	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/rbl"
	"repro/internal/wal"
)

// Resolver returns r with target "dns" consulted before every lookup.
// An injected outage fails with dnssim.ErrUnreachable; every other
// fault, including latency at or above dnssim.DefaultQueryTimeout, with
// dnssim.ErrTimeout. Both are dnssim.IsTemporary.
func Resolver(r dnssim.Resolver, set *faults.Set) dnssim.Resolver {
	if set == nil {
		return r
	}
	return resolver{r, set}
}

type resolver struct {
	inner dnssim.Resolver
	set   *faults.Set
}

func (r resolver) fault() error {
	d := r.set.Decide("dns", dnssim.DefaultQueryTimeout)
	switch {
	case d.Err == nil:
		return nil
	case d.Kind == faults.KindOutage:
		return fmt.Errorf("%w: %w", dnssim.ErrUnreachable, d.Err)
	default:
		return fmt.Errorf("%w: %v", dnssim.ErrTimeout, d.Err)
	}
}

func (r resolver) LookupA(host string) ([]string, error) {
	if err := r.fault(); err != nil {
		return nil, err
	}
	return r.inner.LookupA(host)
}

func (r resolver) LookupMX(domain string) ([]dnssim.MX, error) {
	if err := r.fault(); err != nil {
		return nil, err
	}
	return r.inner.LookupMX(domain)
}

func (r resolver) LookupPTR(ip string) (string, error) {
	if err := r.fault(); err != nil {
		return "", err
	}
	return r.inner.LookupPTR(ip)
}

func (r resolver) LookupTXT(domain string) ([]string, error) {
	if err := r.fault(); err != nil {
		return nil, err
	}
	return r.inner.LookupTXT(domain)
}

func (r resolver) ResolvableErr(domain string) (bool, error) {
	if err := r.fault(); err != nil {
		return false, err
	}
	return r.inner.ResolvableErr(domain)
}

// RBL returns b with target "rbl:<name>" consulted before every query,
// against rbl.DefaultQueryTimeout. A fault fails the query; a stale
// fault answers "not listed" without an error, the silent wrong answer
// of a blocklist zone that stopped updating.
func RBL(b filters.RBLBackend, set *faults.Set) filters.RBLBackend {
	if set == nil {
		return b
	}
	return blocklist{b, set, "rbl:" + b.Name()}
}

type blocklist struct {
	filters.RBLBackend
	set    *faults.Set
	target string
}

func (b blocklist) Query(ip string) (bool, error) {
	d := b.set.Decide(b.target, rbl.DefaultQueryTimeout)
	if d.Err != nil {
		return false, fmt.Errorf("rbl: %s query: %w", b.Name(), d.Err)
	}
	if d.Kind == faults.KindStale {
		return false, nil
	}
	return b.RBLBackend.Query(ip)
}

// Antivirus returns p with target "av" consulted before every probe: a
// fault is a scanner-backend error, which the hardened chain resolves by
// its degradation policy.
func Antivirus(p filters.Prober, set *faults.Set) filters.Prober {
	if set == nil {
		return p
	}
	return scanner{p, set}
}

type scanner struct {
	filters.Prober
	set *faults.Set
}

func (s scanner) Check(msg *mail.Message) filters.Result {
	r, _ := s.Probe(msg)
	return r
}

func (s scanner) Probe(msg *mail.Message) (filters.Result, error) {
	if d := s.set.Decide("av", 0); d.Err != nil {
		return filters.Result{}, fmt.Errorf("%s: scanner backend: %w", s.Name(), d.Err)
	}
	return s.Prober.Probe(msg)
}

// Journal returns emit with target "wal-spool" consulted before every
// append: a fault drops the append (LSN 0), and the spool recorder still
// applies the transition in memory. A nil emit stays nil.
func Journal(emit func(wal.Record) uint64, set *faults.Set) func(wal.Record) uint64 {
	if set == nil || emit == nil {
		return emit
	}
	return func(r wal.Record) uint64 {
		if set.Decide("wal-spool", 0).Err != nil {
			return 0
		}
		return emit(r)
	}
}

// Appender returns a with target "wal-append" consulted before every
// append: a fault rejects the append, which the journal treats as any
// rejected append (LSN 0, no tap, the mutation still applies).
func Appender(a wal.Appender, set *faults.Set) wal.Appender {
	if set == nil {
		return a
	}
	return appender{a, set}
}

type appender struct {
	inner wal.Appender
	set   *faults.Set
}

func (a appender) Append(r wal.Record) (uint64, error) {
	if d := a.set.Decide("wal-append", 0); d.Err != nil {
		return 0, fmt.Errorf("wal: append: %w", d.Err)
	}
	return a.inner.Append(r)
}

// Fsync returns an fsync hook for wal.Options.Fsync ("wal-fsync") or
// store.Saver.Fsync ("store") that consults target before every
// (*os.File).Sync: a fault fails the fsync, and the caller takes its
// real fsync-failure branch. A nil set returns nil, which both callers
// read as (*os.File).Sync.
func Fsync(set *faults.Set, target string) func(*os.File) error {
	if set == nil {
		return nil
	}
	return func(f *os.File) error {
		if d := set.Decide(target, 0); d.Err != nil {
			return d.Err
		}
		return f.Sync()
	}
}
