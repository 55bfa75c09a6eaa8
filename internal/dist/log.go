package dist

import "bgploop/internal/durable"

// Log is the coordinator's lease log: a durable.Log of Records (grants,
// completions, sweep lifecycle) handed to the OS per append and fsynced
// on Close. Its job is accounting durability — a restarted coordinator
// folds the log to learn which leases were outstanding when it died
// (they count as reassigned, not fresh) and which sweeps were
// mid-flight, then compacts it to the unfinished residue. The trial
// results themselves are durable in the sweep checkpoint journal; the
// lease log never holds result data. A lease log failure is never fatal
// to the sweep — callers degrade to in-memory accounting — so Append
// errors only feed counters.
type Log = durable.Log[Record]

// OpenLog opens (creating if needed) the lease log at path and replays
// its surviving records in append order.
func OpenLog(fsys durable.FS, path string) (*Log, []Record, error) {
	return durable.OpenLog(fsys, path, durable.Codec[Record]{
		Encode: func(seq int, r Record) ([]byte, error) { r.Seq = seq; return EncodeRecord(r) },
		Decode: func(line []byte) (Record, int, error) { r, err := DecodeRecord(line); return r, r.Seq, err },
	}, 0, false)
}
