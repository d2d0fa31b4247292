package exper

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// LoadTrace parses a recorded request log into the arrival-offset form
// ServingConfig.Trace and CellSpec.TraceFile consume, so real
// production traces replay through the same campaign harness as
// synthetic load.
//
// Format: one request per line; blank lines and lines starting with
// '#' are skipped. On CSV lines only the first field is read, so raw
// "timestamp,endpoint,status" logs work unmodified. Each timestamp is
// either a number — an offset in seconds from the start of the trace —
// or an RFC 3339 time (2021-12-06T10:00:00.25Z), but one log must use
// one format throughout — numeric and RFC 3339 lines anchor to
// independent origins, so mixing them would fabricate inter-arrival
// structure and is rejected. Absolute timestamps are anchored to the
// earliest one, which becomes offset zero; a log whose numeric
// timestamps all exceed ~3 years is taken as epoch-seconds-stamped
// and anchored the same way, so raw Unix-time logs replay instead of
// being silently dropped past the horizon.
//
// rescale multiplies the trace's arrival rate: 2 replays it twice as
// fast, 0.5 at half speed; 0 and 1 leave it unchanged. An offset that
// does not fit time.Duration (about 292 years) after anchoring and
// rescale is an error naming its line. The result is sorted ascending
// (stably, so same-instant requests keep log order).
func LoadTrace(r io.Reader, rescale float64) ([]time.Duration, error) {
	if rescale < 0 {
		return nil, fmt.Errorf("exper: trace: negative rescale %v", rescale)
	}
	if math.IsNaN(rescale) || math.IsInf(rescale, 0) {
		return nil, fmt.Errorf("exper: trace: non-finite rescale %v", rescale)
	}
	if rescale == 0 {
		rescale = 1
	}
	var seconds []float64
	var absolutes []time.Time
	// lines[i] is the log line of the i-th timestamp (one log holds one
	// format, so one slice serves either).
	var lines []int
	// First line of each format, for the mixed-format diagnostic.
	var firstNumLine, firstAbsLine int
	var firstNumField, firstAbsField string
	sc := bufio.NewScanner(r)
	// Real request logs carry arbitrarily long payload fields after the
	// timestamp; the scanner's default 64 KiB token limit would reject
	// the whole log over one long line.
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		field := line
		if i := strings.IndexByte(field, ','); i >= 0 {
			field = field[:i]
		}
		field = strings.TrimSpace(field)
		// ParseFloat also accepts "NaN"/"Inf"; those are malformed
		// timestamps, not offsets, and fall through to the parse error.
		if secs, err := strconv.ParseFloat(field, 64); err == nil && !math.IsNaN(secs) && !math.IsInf(secs, 0) {
			if secs < 0 {
				return nil, fmt.Errorf("exper: trace line %d: negative offset %v", lineno, secs)
			}
			if len(seconds) == 0 {
				firstNumLine, firstNumField = lineno, field
			}
			seconds = append(seconds, secs)
			lines = append(lines, lineno)
			continue
		}
		t, err := time.Parse(time.RFC3339Nano, field)
		if err != nil {
			return nil, fmt.Errorf("exper: trace line %d: %q is neither a seconds offset nor an RFC 3339 timestamp", lineno, field)
		}
		if len(absolutes) == 0 {
			firstAbsLine, firstAbsField = lineno, field
		}
		absolutes = append(absolutes, t)
		lines = append(lines, lineno)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("exper: trace near line %d: %w", lineno+1, err)
	}
	if len(seconds) > 0 && len(absolutes) > 0 {
		return nil, fmt.Errorf(
			"exper: trace mixes numeric and RFC 3339 timestamps (%d and %d lines, e.g. %q on line %d vs %q on line %d); one log must use one format",
			len(seconds), len(absolutes), firstNumField, firstNumLine, firstAbsField, firstAbsLine)
	}
	// Numeric timestamps that all sit far from zero are epoch seconds,
	// not offsets: anchor them to the earliest entry like RFC 3339
	// absolutes (10^8 s ≈ 3.2 years — no replayable offset is that
	// large, no epoch-stamped log since 1973 is below it). Anchoring
	// happens in seconds, before the nanosecond conversion, so epoch
	// magnitudes do not cost sub-second float precision.
	const epochCutoff = 1e8
	// An offset must fit time.Duration (~292 years) after anchoring and
	// rescale; a float conversion past it would wrap negative.
	tooLong := func(i int) error {
		return fmt.Errorf("exper: trace line %d: offset beyond time.Duration's ~292-year range", lines[i])
	}
	var offsets []time.Duration
	if len(seconds) > 0 {
		min := seconds[0]
		for _, s := range seconds[1:] {
			if s < min {
				min = s
			}
		}
		if min < epochCutoff {
			min = 0
		}
		for i, s := range seconds {
			ns := (s - min) * float64(time.Second)
			if !(ns < 1<<63) {
				return nil, tooLong(i)
			}
			offsets = append(offsets, time.Duration(ns))
		}
	}
	if len(absolutes) > 0 {
		origin := absolutes[0]
		for _, t := range absolutes[1:] {
			if t.Before(origin) {
				origin = t
			}
		}
		for i, t := range absolutes {
			// Sub saturates instead of overflowing.
			off := t.Sub(origin)
			if !origin.Add(off).Equal(t) {
				return nil, tooLong(i)
			}
			offsets = append(offsets, off)
		}
	}
	if rescale != 1 {
		for i, off := range offsets {
			ns := float64(off) / rescale
			if !(ns < 1<<63) {
				return nil, tooLong(i)
			}
			offsets[i] = time.Duration(ns)
		}
	}
	sort.SliceStable(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	return offsets, nil
}
