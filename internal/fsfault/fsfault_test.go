package fsfault

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestDisarmedPassThrough(t *testing.T) {
	Reset()
	var buf bytes.Buffer
	n, err := Write("nowhere", &buf, []byte("hello"))
	if n != 5 || err != nil {
		t.Fatalf("Write = (%d, %v), want (5, nil)", n, err)
	}
	if err := Hit("nowhere"); err != nil {
		t.Fatalf("Hit = %v, want nil", err)
	}
}

func TestWriteShortThenError(t *testing.T) {
	Reset()
	defer Reset()
	Enable("p", Fault{AllowBytes: 7, Err: ErrInjectedENOSPC})

	var buf bytes.Buffer
	// First write fits entirely inside the allowance.
	if n, err := Write("p", &buf, []byte("1234")); n != 4 || err != nil {
		t.Fatalf("first Write = (%d, %v), want (4, nil)", n, err)
	}
	// Second crosses it: 3 more bytes allowed, then the fault fires.
	n, err := Write("p", &buf, []byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("crossing Write = (%d, %v), want (3, ENOSPC)", n, err)
	}
	if got := buf.String(); got != "1234abc" {
		t.Fatalf("bytes on disk = %q, want the torn prefix %q", got, "1234abc")
	}
	// A persistent fault keeps firing with zero further bytes allowed.
	if n, err := Write("p", &buf, []byte("x")); n != 0 || !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("post-exhaustion Write = (%d, %v), want (0, ENOSPC)", n, err)
	}
	if Fired("p") != 2 {
		t.Fatalf("Fired = %d, want 2", Fired("p"))
	}
}

func TestWriteOnceDisarmsAfterFiring(t *testing.T) {
	Reset()
	defer Reset()
	Enable("p", Fault{Err: ErrInjectedEIO, Once: true})

	var buf bytes.Buffer
	if _, err := Write("p", &buf, []byte("abc")); !errors.Is(err, ErrInjectedEIO) {
		t.Fatalf("first Write err = %v, want EIO", err)
	}
	// The retry goes through untouched: the fault was transient.
	if n, err := Write("p", &buf, []byte("abc")); n != 3 || err != nil {
		t.Fatalf("retry Write = (%d, %v), want (3, nil)", n, err)
	}
	if Fired("p") != 1 {
		t.Fatalf("Fired = %d, want 1", Fired("p"))
	}
}

func TestHitCallAllowance(t *testing.T) {
	Reset()
	defer Reset()
	Enable("p", Fault{AllowCalls: 2})
	for i := 0; i < 2; i++ {
		if err := Hit("p"); err != nil {
			t.Fatalf("call %d: %v, want nil", i, err)
		}
	}
	if err := Hit("p"); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("third call = %v, want injected failure", err)
	}
}

func TestRenameFailureLeavesDestinationUntouched(t *testing.T) {
	Reset()
	defer Reset()
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	dst := filepath.Join(dir, "dst")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	Enable("p", Fault{})
	if err := Rename("p", src, dst); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("Rename = %v, want injected failure", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("destination exists after failed rename (stat err %v)", err)
	}
	Reset()
	if err := Rename("p", src, dst); err != nil {
		t.Fatalf("disarmed Rename = %v", err)
	}
}

func TestArmFromSpec(t *testing.T) {
	Reset()
	defer Reset()
	if err := armFromSpec("a.write=enospc@10;b.rename=fail@0,once; c=short@3"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := Write("a.write", &buf, make([]byte, 20)); n != 10 || !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("a.write = (%d, %v), want (10, ENOSPC)", n, err)
	}
	if err := Hit("b.rename"); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("b.rename = %v, want injected failure", err)
	}
	if err := Hit("b.rename"); err != nil {
		t.Fatalf("b.rename once-clause fired twice: %v", err)
	}
	if n, err := Write("c", &buf, []byte("abcdef")); n != 3 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("c = (%d, %v), want (3, ErrShortWrite)", n, err)
	}

	for _, bad := range []string{"noequals", "p=weird@3", "p=eio@x", "p=eio"} {
		if err := armFromSpec(bad); err == nil {
			t.Errorf("armFromSpec(%q) accepted a malformed spec", bad)
		}
	}
}
