package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestHalfWindowRejected pins the explicit-window contract: -a and -b
// come together, and giving only one is an error naming the other
// rather than a silent fall back to the canonical window.
func TestHalfWindowRejected(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		missing string
	}{
		{[]string{"-a", "99"}, "-b is missing"},
		{[]string{"-b", "108"}, "-a is missing"},
		{[]string{"-n", "500", "-a", "99", "-mc", "0"}, "-b is missing"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Fatalf("args %v accepted", tc.args)
		}
		if !strings.Contains(err.Error(), tc.missing) {
			t.Errorf("args %v: diagnostic %q does not say %q", tc.args, err, tc.missing)
		}
	}
}

func TestWindows(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-a", "99", "-b", "108", "-mc", "0"}, "explicit window: V = [[100, 108]], |V| = 9"},
		{[]string{"-n", "100", "-mc", "50"}, "canonical window for target n=100: V = [[100, 108]], |V| = 9"},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("args %v: %v", tc.args, err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("args %v: output %q lacks %q", tc.args, out.String(), tc.want)
		}
	}
}
