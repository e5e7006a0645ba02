package simclock

import (
	"testing"
	"time"
)

func TestStudyDays(t *testing.T) {
	// Jan 2016 .. Mar 2018 inclusive: 2016 is a leap year.
	want := 366 + 365 + 31 + 28 + 31 // 2016 + 2017 + Jan..Mar 2018
	if got := StudyDays(); got != want {
		t.Fatalf("StudyDays() = %d, want %d", got, want)
	}
}

func TestDefaultScheduleShape(t *testing.T) {
	sched := DefaultSchedule()
	if len(sched) == 0 {
		t.Fatal("empty default schedule")
	}
	// Bi-weekly over 27 months: roughly 59 snapshots.
	if len(sched) < 55 || len(sched) > 62 {
		t.Fatalf("len(DefaultSchedule()) = %d, want ~59", len(sched))
	}
	for i, s := range sched {
		if s.Index != i {
			t.Fatalf("snapshot %d has Index %d", i, s.Index)
		}
		if s.Days != 2 {
			t.Fatalf("snapshot %d has Days %d, want 2", i, s.Days)
		}
		if s.End().After(StudyEnd) {
			t.Fatalf("snapshot %d (%v) extends past study end", i, s.Start)
		}
		if i > 0 && s.Start.Sub(sched[i-1].Start) != 14*Day {
			t.Fatalf("snapshot %d not 14 days after previous", i)
		}
	}
	// Latest snapshot must land in March 2018, the paper's "latest snapshot".
	latest := sched.Latest()
	if latest.Start.Year() != 2018 || latest.Start.Month() != time.March {
		t.Fatalf("latest snapshot starts %v, want March 2018", latest.Start)
	}
}

func TestSnapshotLabel(t *testing.T) {
	s := Snapshot{Index: 7, Start: time.Date(2016, 4, 8, 0, 0, 0, 0, time.UTC), Days: 2}
	if got, want := s.Label(), "2016-04-08#7"; got != want {
		t.Fatalf("Label() = %q, want %q", got, want)
	}
}

func TestFractionThrough(t *testing.T) {
	if f := FractionThrough(StudyStart); f != 0 {
		t.Errorf("FractionThrough(start) = %v", f)
	}
	if f := FractionThrough(StudyEnd); f != 1 {
		t.Errorf("FractionThrough(end) = %v", f)
	}
	if f := FractionThrough(StudyStart.Add(-time.Hour)); f != 0 {
		t.Errorf("FractionThrough(before start) = %v, want clamp to 0", f)
	}
	if f := FractionThrough(StudyEnd.Add(time.Hour)); f != 1 {
		t.Errorf("FractionThrough(after end) = %v, want clamp to 1", f)
	}
	mid := FractionThrough(StudyStart.Add(StudyEnd.Sub(StudyStart) / 2))
	if mid < 0.49 || mid > 0.51 {
		t.Errorf("FractionThrough(mid) = %v, want ~0.5", mid)
	}
}

func TestMakeSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakeSchedule(0, 2) should panic")
		}
	}()
	MakeSchedule(0, 2)
}
