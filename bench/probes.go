package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bgploop/internal/durable"
	"bgploop/internal/experiment"
	"bgploop/internal/sweep"
	"bgploop/internal/wire"
)

// The layer probes push a workload's own payload through the layers its
// ops do not time from inside — the persistence, codec and admission
// layers — by direct timed calls. The service layers are not probed: the
// serve and dist metrics come from the served and dist-w1 workloads' own
// ops and read 0 on the workloads that never reach those layers.

// wireRoundTrip encodes and decodes every recorded update through the
// RFC 4271 codec. The codec is off the trial path today; the numbers are
// the "before" for a change that puts it there.
func wireRoundTrip(stream []streamRec, p *kernelProfile) error {
	a0 := exactMallocs()
	start := time.Now()
	for i := range stream {
		r := &stream[i]
		if r.down {
			continue
		}
		msg, err := wire.EncodeSimUpdate(r.from, r.up)
		if err != nil {
			return fmt.Errorf("bench: wire encode: %w", err)
		}
		if _, err := wire.DecodeSimUpdate(msg); err != nil {
			return fmt.Errorf("bench: wire decode: %w", err)
		}
		p.WireOps++
	}
	p.Wire = time.Since(start)
	p.WireAllocs = exactMallocs() - a0
	return nil
}

// probeReps is how many timed calls back each probe's median.
const probeReps = 24

// timeEach runs fn n times and returns the median duration of a call.
func timeEach(n int, fn func(i int) error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	return medianDur(ds), nil
}

// probeKey derives a well-formed content address for probe object i.
func probeKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("bench/probe/%d", i)))
	return hex.EncodeToString(sum[:])
}

// probePersistence times the sweep and durable layers on data, one
// encoded result of the workload, and spec, its scenario as the job WAL
// would record it.
func probePersistence(dir string, res *experiment.Result, data, spec []byte, m metricSet) error {
	defer func() { _ = os.RemoveAll(dir) }()
	ctx := context.Background()

	// sweep.exec_us_per_trial: the executor around a task that costs
	// nothing — cache probe, encode, fsynced put, merge — per trial.
	task := func(context.Context, int) (*experiment.Result, error) { return res, nil }
	exec, err := timeEach(5, func(rep int) error {
		cache, err := sweep.OpenCache(filepath.Join(dir, fmt.Sprintf("exec%d", rep)))
		if err != nil {
			return err
		}
		out, err := sweep.Run(ctx, sweepTrials, task, sweep.Options[*experiment.Result]{
			Workers: 1,
			Cache:   cache,
			Codec: sweep.Codec[*experiment.Result]{
				Key:    func(i int) string { return probeKey(rep*sweepTrials + i) },
				Encode: experiment.EncodeResult,
				Decode: experiment.DecodeResult,
			},
		})
		if err != nil {
			return err
		}
		if out.Stats.Executed != sweepTrials {
			return fmt.Errorf("executor probe executed %d of %d", out.Stats.Executed, sweepTrials)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sweep.exec_us_per_trial"] = us(exec) / sweepTrials

	cache, err := sweep.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	put, err := timeEach(probeReps, func(i int) error { return cache.Put(probeKey(i), data) })
	if err != nil {
		return err
	}
	m["sweep.cache_put_us"] = us(put)
	get, err := timeEach(probeReps, func(i int) error {
		_, ok, err := cache.Get(probeKey(i))
		if err == nil && !ok {
			err = errors.New("cache probe missed an object it just stored")
		}
		return err
	})
	if err != nil {
		return err
	}
	m["sweep.cache_get_us"] = us(get)

	journal, err := sweep.OpenJournal(filepath.Join(dir, "journal.jsonl"), false)
	if err != nil {
		return err
	}
	app, err := timeEach(probeReps, func(i int) error { return journal.Append(i, probeKey(i), data) })
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["sweep.journal_append_us"] = us(app)

	flight := sweep.NewFlight()
	const flightCalls = 2000
	start := time.Now()
	for i := 0; i < flightCalls; i++ {
		if _, _, err := flight.Do(ctx, "k", func() ([]byte, error) { return data, nil }); err != nil {
			return err
		}
	}
	m["sweep.flight_do_ns"] = float64(time.Since(start)) / flightCalls

	wal, _, err := durable.OpenWAL(nil, filepath.Join(dir, "wal", "jobs.jsonl"))
	if err != nil {
		return err
	}
	walApp, err := timeEach(probeReps, func(i int) error {
		return wal.Append(durable.Record{Type: "job", Job: fmt.Sprintf("job-%06d", i), Key: probeKey(i), Trials: sweepTrials, Spec: json.RawMessage(spec)})
	})
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["durable.wal_append_us"] = us(walApp)

	atomic, err := timeEach(probeReps, func(i int) error {
		return durable.WriteFileAtomic(nil, filepath.Join(dir, "atomic", fmt.Sprintf("f%d", i)), data, true)
	})
	if err != nil {
		return err
	}
	m["durable.atomic_write_us"] = us(atomic)
	return nil
}

// probePreflight times the static safety verdict admission pays for.
func probePreflight(sc experiment.Scenario, m metricSet) error {
	d, err := timeEach(5, func(int) error {
		_, err := experiment.PreflightVerdict(sc)
		return err
	})
	m["safety.preflight_us"] = us(d)
	return err
}

// distCounters is the part of the coordinator's accounting the dist
// metrics report.
type distCounters struct {
	granted, reassigned, hedged, remote int64
}

func (c distCounters) sub(o distCounters) distCounters {
	return distCounters{c.granted - o.granted, c.reassigned - o.reassigned, c.hedged - o.hedged, c.remote - o.remote}
}

func readDistCounters(f *fleet) distCounters {
	c := f.coord.Counters()
	return distCounters{granted: c.LeasesGranted, reassigned: c.LeasesReassigned, hedged: c.LeasesHedged, remote: c.RemoteTrials}
}
