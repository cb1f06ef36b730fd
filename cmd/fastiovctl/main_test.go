package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestRunpRejectsNonPositiveCount(t *testing.T) {
	for _, count := range []string{"0", "-1"} {
		var out bytes.Buffer
		err := runp([]string{"-count", count}, &out)
		if !errors.As(err, new(usageError)) {
			t.Errorf("-count %s: err = %v, want a usage error (exit 2)", count, err)
		}
		if out.Len() != 0 {
			t.Errorf("-count %s printed output:\n%s", count, out.String())
		}
	}
}

func TestRunpStartsPods(t *testing.T) {
	var out bytes.Buffer
	if err := runp([]string{"-count", "3", "-teardown"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"3 pods, baseline=fastiov", "teardown complete"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
