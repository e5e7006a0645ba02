// Package simclock provides the simulated measurement timeline used
// throughout the reproduction: a 27-month study window (January 2016 to
// March 2018) and the bi-weekly two-day snapshot schedule the paper uses
// to sample its dataset ("a sequence of two-day snapshots taken
// bi-weekly", §3).
//
// All library code takes time from this package rather than the wall
// clock so that every experiment is reproducible.
package simclock

import (
	"fmt"
	"time"
)

// Study window bounds. The paper's dataset spans January 2016 through
// March 2018 (27 months).
var (
	// StudyStart is the first instant of the study window.
	StudyStart = time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)
	// StudyEnd is the first instant after the study window.
	StudyEnd = time.Date(2018, time.April, 1, 0, 0, 0, 0, time.UTC)
)

// Day is the resolution of the simulated timeline.
const Day = 24 * time.Hour

// StudyDays returns the number of whole days in the study window.
func StudyDays() int { return int(StudyEnd.Sub(StudyStart) / Day) }

// DayTime is the first instant of day i, counted from StudyStart.
func DayTime(i int) time.Time {
	return StudyStart.Add(time.Duration(i) * Day)
}

// Snapshot is one sampling window of the dataset: a contiguous run of
// days, identified by a zero-based index in the study-wide schedule.
type Snapshot struct {
	Index int       // position in the schedule, 0-based
	Start time.Time // first instant of the window
	Days  int       // window length in days
}

// End returns the first instant after the snapshot window.
func (s Snapshot) End() time.Time { return s.Start.Add(time.Duration(s.Days) * Day) }

// Label returns a short human-readable identifier such as "2016-01-01#0".
func (s Snapshot) Label() string {
	return fmt.Sprintf("%s#%d", s.Start.Format("2006-01-02"), s.Index)
}

// Schedule is an ordered list of snapshots covering the study window.
type Schedule []Snapshot

// DefaultSchedule returns the paper's sampling plan: two-day snapshots
// taken every two weeks from StudyStart, with the final snapshot falling
// in March 2018 (the "latest snapshot" referenced by every per-snapshot
// figure).
func DefaultSchedule() Schedule {
	return MakeSchedule(14, 2)
}

// MakeSchedule builds a schedule with a snapshot of windowDays days
// every everyDays days, starting at StudyStart, such that every window
// fits entirely inside the study period. It panics on non-positive
// arguments, which indicate programmer error.
func MakeSchedule(everyDays, windowDays int) Schedule {
	if everyDays <= 0 || windowDays <= 0 {
		panic("simclock: non-positive schedule parameters")
	}
	var sched Schedule
	for d := 0; d+windowDays <= StudyDays(); d += everyDays {
		sched = append(sched, Snapshot{
			Index: len(sched),
			Start: DayTime(d),
			Days:  windowDays,
		})
	}
	return sched
}

// Latest returns the final snapshot of the schedule. It panics on an
// empty schedule.
func (sc Schedule) Latest() Snapshot {
	if len(sc) == 0 {
		panic("simclock: empty schedule")
	}
	return sc[len(sc)-1]
}

// FractionThrough maps an instant to its relative position in the study
// window: 0 at StudyStart, 1 at StudyEnd, clamped outside the window.
// Adoption-trend models use this as their abscissa.
func FractionThrough(t time.Time) float64 {
	f := float64(t.Sub(StudyStart)) / float64(StudyEnd.Sub(StudyStart))
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
