package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stm"
)

// CheckpointInfo summarizes one Checkpoint call.
type CheckpointInfo struct {
	Ts            uint64        // the frozen timestamp
	Live          int           // pairs in the image at Ts, all of them written
	TruncatedSegs int           // log segments deleted below Ts
	Pause         time.Duration // wall time of the whole call
	// TruncationSkipped: the checkpoint image is durable, but the log
	// degraded between the image fsync and truncation, so no segment was
	// deleted. While a stream is retaining records past a failed flush,
	// "every record below ts is redundant" cannot be certified from
	// bookkeeping alone; skipping costs only disk space, and the next
	// healthy checkpoint reclaims the segments.
	TruncationSkipped bool
}

// Checkpoint takes an online checkpoint: it reads the whole map at one
// frozen shared-clock timestamp through shard.Thread.Snapshot (writers keep
// committing throughout — on Multiverse the pinned scans ride the versioned
// read path), encoding each pair into the file image as the scan visits it,
// writes that image to a new checkpoint file, and deletes what it makes
// redundant: every older checkpoint file and the log segments below its ts.
// Nothing of the image outlives the call.
//
// On the versionless baselines (tl2, dctl) a pinned scan starves under
// sustained update load; Snapshot gives up after its bounded re-freezes and
// Checkpoint reports the starvation as an error (counted in
// Stats.StarvedCkpts, recorded as obs.EvCkptStarved), leaving the previous
// checkpoint state untouched.
func (l *Log) Checkpoint() (CheckpointInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var info CheckpointInfo
	if l.closed || l.severed.Load() {
		return info, fmt.Errorf("wal: checkpoint on a closed or severed log: %w", ErrSevered)
	}
	if h := l.Health(); h != Healthy {
		// A checkpoint taken while streams are failing could become the
		// only copy of records the log never persisted — and its own
		// writes are likely to fail anyway. Heal first.
		return info, fmt.Errorf("wal: refusing checkpoint while log is %s: %w: %w", h, h.Err(), l.Err())
	}
	start := time.Now()

	buf := make([]byte, 0, ckptHeaderSize+ckptPairSize*(l.ckptPairs+64)+4)
	ts, ok := l.ckptTh.Snapshot(func(tx stm.Txn) {
		buf = beginCheckpoint(buf[:0]) // the body reruns after a re-freeze
		l.inner.VisitTx(tx, 1, ^uint64(0), func(k, v uint64) { buf = appendCkptPair(buf, k, v) })
	})
	if !ok {
		l.starvedCkpts.Add(1)
		l.rec.Record(obs.EvCkptStarved, uint64(time.Since(start)), 0, 0)
		return info, fmt.Errorf("wal: checkpoint starved (backend %q keeps no versions to pin)", l.opts.Backend)
	}
	l.ckptPairs = (len(buf) - ckptHeaderSize) / ckptPairSize
	info.Ts, info.Live = ts, l.ckptPairs
	l.rec.Record(obs.EvCkptBegin, ts, 0, 0)

	if l.severed.Load() { // crashed while we scanned: write nothing
		return info, fmt.Errorf("wal: log severed during checkpoint: %w", ErrSevered)
	}
	path := filepath.Join(l.opts.Dir, CkptName(ts))
	if err := writeFileDurable(l.fs, path, finishCheckpoint(buf, ts)); err != nil {
		return info, err
	}

	// The checkpoint is durable. Before destroying anything it supersedes,
	// re-check health: if any stream degraded while we scanned and wrote,
	// keep every segment (see CheckpointInfo.TruncationSkipped).
	if l.Health() != Healthy {
		l.ckptFiles = append(l.ckptFiles, path)
		info.TruncationSkipped = true
		l.rec.Record(obs.EvCkptSkip, ts, 0, 0)
	} else {
		for _, older := range l.ckptFiles {
			l.fs.Remove(older)
		}
		l.ckptFiles = append(l.ckptFiles[:0], path)
		for _, s := range l.streams {
			info.TruncatedSegs += s.truncateBelow(ts)
		}
		keptLegacy := l.legacySegs[:0]
		for _, seg := range l.legacySegs {
			if seg.maxTs < ts {
				l.fs.Remove(seg.path)
				info.TruncatedSegs++
				continue
			}
			keptLegacy = append(keptLegacy, seg)
		}
		l.legacySegs = keptLegacy
	}

	l.lastCkptTs.Store(ts)
	l.checkpoints.Add(1)
	info.Pause = time.Since(start)
	l.lastCkptPause.Store(int64(info.Pause))
	l.rec.Record(obs.EvCkptEnd, ts, uint64(info.Live), uint64(info.TruncatedSegs))
	return info, nil
}

// writeFileDurable writes data to path via a temp file, fsync, rename, and
// a directory fsync, so a crash mid-checkpoint leaves either no file or a
// fully valid one under the final name (the CRC footer catches anything in
// between) — and a power loss after return cannot lose the rename itself,
// which matters because the caller deletes superseded segments next.
func writeFileDurable(fsys fault.FS, path string, data []byte) error {
	tmp := path + ckptTmpSuffix
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		// fsync-poisoning applies here too: the temp file's pages may be
		// gone; never rename it into place, and never retry its fsync.
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return syncDir(fsys, filepath.Dir(path))
}

// syncDir fsyncs a directory so entry creations/renames within it survive
// power loss (a no-op failure is tolerated on filesystems that cannot sync
// directories — those also reorder nothing across a process death, which
// is the level the crash torture exercises).
func syncDir(fsys fault.FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil && (errors.Is(err, os.ErrInvalid) || errors.Is(err, errors.ErrUnsupported)) {
		return nil
	}
	return err
}
