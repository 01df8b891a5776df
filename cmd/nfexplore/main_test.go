package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestExploreAltbitBroken(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "altbit"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "BROKEN") || !strings.Contains(out, "counterexample") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestExploreAltbitFIFOSafe(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "altbit", "-fifo", "-drop"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SAFE within bounds") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestExploreSwindow(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-protocol", "swindow-s2-w1", "-messages", "3"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BROKEN") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestExploreSwindowUnbounded(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-protocol", "swindow-unbounded-w2"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SAFE") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestExploreUndecidedOnTinyBudget(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-protocol", "seqnum", "-messages", "3", "-max-states", "10"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "UNDECIDED") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestExploreSpecialProtocols(t *testing.T) {
	for _, name := range []string{"livelock", "cntnobind"} {
		var buf bytes.Buffer
		if err := run([]string{"-protocol", name, "-messages", "2"}, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestExploreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "nope"},
		{"-badflag"},
		// No protocol lookup accepts a negative sequence space, so neither
		// its name nor the retired flags that used to build it may run.
		{"-protocol", "swindow-s-1-w1"},
		{"-protocol", "swindow", "-seqspace", "-1", "-window", "1"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("args %v should fail", args)
		}
	}
}
