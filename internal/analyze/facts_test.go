package analyze

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// vetmodDir is the checked-in two-package fixture module (own go.mod, so the
// repo's ./... patterns skip it): helper exports an impure Render, and
// keys.AppendStateKey calls it across the package boundary.
const vetmodDir = "testdata/vetmod"

func TestFactsCodecRoundTrip(t *testing.T) {
	fs := NewFactSet()
	fs.Purity["Render"] = PurityFact{Impure: true, Reason: "calls fmt.Sprint"}
	fs.Purity["Width"] = PurityFact{}
	fs.Purity["Node.AppendStateKey"] = PurityFact{Impure: true, Reason: "calls helper.Render, which calls fmt.Sprint"}

	data, err := EncodeFacts(fs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeFacts(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("facts encoding is not deterministic: two encodes of the same set differ")
	}

	back, err := DecodeFacts(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Purity) != len(fs.Purity) {
		t.Fatalf("round trip lost entries: %d != %d", len(back.Purity), len(fs.Purity))
	}
	for k, want := range fs.Purity {
		if got := back.Purity[k]; got != want {
			t.Errorf("round trip %s: got %+v, want %+v", k, got, want)
		}
	}

	// Zero-byte vetx files (the pre-facts tool's output, possibly replayed
	// from cmd/go's cache) decode to the empty set.
	empty, err := DecodeFacts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Purity) != 0 {
		t.Errorf("empty payload decoded to %d entries", len(empty.Purity))
	}
}

// FuzzFactsCodecRoundTrip feeds arbitrary bytes to the vetx facts decoder:
// cmd/go hands nfvet whatever vetx files its cache holds. Decoding must not
// panic; an accepted fact set must survive encode→decode unchanged, and its
// encoding must be stable.
func FuzzFactsCodecRoundTrip(f *testing.F) {
	fs := NewFactSet()
	fs.Purity["Render"] = PurityFact{Impure: true, Reason: "calls fmt.Sprint"}
	fs.Purity["Width"] = PurityFact{}
	for _, s := range []*FactSet{NewFactSet(), fs} {
		data, err := EncodeFacts(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeFacts(b)
		if err != nil {
			return
		}
		data, err := EncodeFacts(got)
		if err != nil {
			t.Fatalf("re-encoding accepted facts: %v", err)
		}
		again, err := DecodeFacts(data)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the facts:\n%+v\nvs\n%+v", got, again)
		}
		if redo, err := EncodeFacts(again); err != nil || !bytes.Equal(redo, data) {
			t.Fatalf("re-encoding accepted facts is not stable (err %v)", err)
		}
	})
}

// writeUnitCfg hand-authors the JSON config cmd/go would write for one
// compilation unit of the vetmod fixture.
func writeUnitCfg(t *testing.T, dir string, cfg *vetConfig) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.ReplaceAll(cfg.ImportPath, "/", "_")+".cfg")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVetxCfgRoundTrip drives runUnit exactly as cmd/go does — one cfg per
// unit, dependency vetx fed forward — and asserts the full channel: a
// VetxOnly helper unit exports a non-empty decodable fact set, the keys unit
// fails on the cross-package impurity only when PackageVetx is supplied, and
// the keys unit's own vetx carries the derived Node.AppendStateKey impurity.
func TestVetxCfgRoundTrip(t *testing.T) {
	exports, err := exportMap(vetmodDir, "./...")
	if err != nil {
		t.Fatalf("resolving vetmod export data: %v", err)
	}
	importMap := make(map[string]string, len(exports))
	//nfvet:allow maprange (identity map; no order-sensitive output)
	for path := range exports {
		importMap[path] = path
	}
	absFile := func(rel string) string {
		p, err := filepath.Abs(filepath.Join(vetmodDir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	tmp := t.TempDir()
	helperVetx := filepath.Join(tmp, "helper.vetx")
	keysVetx := filepath.Join(tmp, "keys.vetx")

	// Unit 1: the helper, as cmd/go drives dependencies — VetxOnly, facts
	// wanted, diagnostics suppressed.
	helperCfg := &vetConfig{
		ID:          "vetmod/helper",
		Compiler:    "gc",
		ImportPath:  "vetmod/helper",
		GoFiles:     []string{absFile("helper/helper.go")},
		ImportMap:   importMap,
		PackageFile: exports,
		VetxOnly:    true,
		VetxOutput:  helperVetx,
	}
	var errw bytes.Buffer
	if code := runUnit("nfvet", writeUnitCfg(t, tmp, helperCfg), Analyzers(), &errw); code != 0 {
		t.Fatalf("helper unit exited %d: %s", code, errw.String())
	}
	if errw.Len() != 0 {
		t.Errorf("VetxOnly unit printed diagnostics: %s", errw.String())
	}
	helperFacts, err := ReadFactsFile(helperVetx)
	if err != nil {
		t.Fatalf("reading helper vetx: %v", err)
	}
	if f, ok := helperFacts.Purity["Render"]; !ok || !f.Impure || !strings.Contains(f.Reason, "fmt.Sprint") {
		t.Errorf("helper vetx Render fact = %+v, want impure via fmt.Sprint", f)
	}
	if f, ok := helperFacts.Purity["Width"]; !ok || f.Impure {
		t.Errorf("helper vetx Width fact = %+v, want present and pure", f)
	}

	// Unit 2: keys with the helper's facts in scope — the cross-package
	// impurity must be reported and the exit code must be nonzero.
	keysCfg := &vetConfig{
		ID:          "vetmod/keys",
		Compiler:    "gc",
		ImportPath:  "vetmod/keys",
		GoFiles:     []string{absFile("keys/keys.go")},
		ImportMap:   importMap,
		PackageFile: exports,
		PackageVetx: map[string]string{"vetmod/helper": helperVetx},
		VetxOutput:  keysVetx,
	}
	errw.Reset()
	if code := runUnit("nfvet", writeUnitCfg(t, tmp, keysCfg), Analyzers(), &errw); code != 1 {
		t.Fatalf("keys unit with facts exited %d, want 1; output: %s", code, errw.String())
	}
	if out := errw.String(); !strings.Contains(out, "AppendStateKey calls helper.Render") || !strings.Contains(out, "fmt.Sprint") {
		t.Errorf("keys diagnostics missing the cross-package chain: %s", out)
	}
	keysFacts, err := ReadFactsFile(keysVetx)
	if err != nil {
		t.Fatalf("reading keys vetx: %v", err)
	}
	if f, ok := keysFacts.Purity["Node.AppendStateKey"]; !ok || !f.Impure {
		t.Errorf("keys vetx Node.AppendStateKey fact = %+v, want derived impurity", f)
	}

	// Control: the same unit without PackageVetx analyzes clean — the
	// diagnostic exists only through the channel.
	keysCfg.PackageVetx = nil
	keysCfg.ID = "vetmod/keys-nofacts"
	keysCfg.VetxOutput = filepath.Join(tmp, "keys-nofacts.vetx")
	errw.Reset()
	if code := runUnit("nfvet", writeUnitCfg(t, tmp, keysCfg), Analyzers(), &errw); code != 0 {
		t.Fatalf("keys unit without facts exited %d, want 0; output: %s", code, errw.String())
	}

	// A torn dependency facts file fails the unit and names the file:
	// skipping it would silently drop the cross-package diagnostic above.
	data, err := os.ReadFile(helperVetx)
	if err != nil {
		t.Fatal(err)
	}
	tornVetx := filepath.Join(tmp, "helper-torn.vetx")
	if err := os.WriteFile(tornVetx, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	keysCfg.PackageVetx = map[string]string{"vetmod/helper": tornVetx}
	keysCfg.ID = "vetmod/keys-torn"
	keysCfg.VetxOutput = filepath.Join(tmp, "keys-torn.vetx")
	errw.Reset()
	if code := runUnit("nfvet", writeUnitCfg(t, tmp, keysCfg), Analyzers(), &errw); code != 1 {
		t.Fatalf("keys unit with a torn facts file exited %d, want 1; output: %s", code, errw.String())
	}
	if out := errw.String(); !strings.Contains(out, tornVetx) {
		t.Errorf("torn facts failure does not name %s: %s", tornVetx, out)
	}

	// A zero-byte facts file, as the pre-facts tool wrote, reads as the
	// empty set: the unit analyzes as it does without facts.
	emptyVetx := filepath.Join(tmp, "helper-empty.vetx")
	if err := os.WriteFile(emptyVetx, nil, 0o666); err != nil {
		t.Fatal(err)
	}
	keysCfg.PackageVetx = map[string]string{"vetmod/helper": emptyVetx}
	keysCfg.ID = "vetmod/keys-empty"
	keysCfg.VetxOutput = filepath.Join(tmp, "keys-empty.vetx")
	errw.Reset()
	if code := runUnit("nfvet", writeUnitCfg(t, tmp, keysCfg), Analyzers(), &errw); code != 0 {
		t.Fatalf("keys unit with a zero-byte facts file exited %d, want 0; output: %s", code, errw.String())
	}
}

// TestInProcessFactsFixture asserts the same contrast through the standalone
// loader: AnalyzeModule reports the cross-package impurity with facts on and
// nothing with facts off.
func TestInProcessFactsFixture(t *testing.T) {
	pkgs, err := LoadPackages(vetmodDir, "./...")
	if err != nil {
		t.Fatalf("loading vetmod: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}

	withFacts := AnalyzeModule(Analyzers(), pkgs, true)
	if len(withFacts.Diags) != 1 {
		t.Fatalf("with facts: got %d diagnostics, want 1: %v", len(withFacts.Diags), withFacts.Diags)
	}
	d := withFacts.Diags[0]
	if d.Analyzer != "statekey" || !strings.Contains(d.Message, "AppendStateKey calls helper.Render") {
		t.Errorf("unexpected diagnostic: %s", d)
	}

	without := AnalyzeModule(Analyzers(), pkgs, false)
	if len(without.Diags) != 0 {
		t.Errorf("without facts: got %d diagnostics, want 0: %v", len(without.Diags), without.Diags)
	}
}
