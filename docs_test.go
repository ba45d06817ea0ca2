package treesvd

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents a reader follows to build, test and run the repository.
// CHANGES.md and EXPERIMENTS.md are history: they may name what is gone.
var liveDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	makefileTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
	fencedBlock    = regexp.MustCompile("(?s)```.*?```")
	codeSpan       = regexp.MustCompile("`[^`]+`")
	makeInvocation = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	cmdPath        = regexp.MustCompile(`\bcmd/([a-z][a-z0-9_]*)`)
)

// TestDocsNameLiveTargets fails when a live document tells the reader to
// run a make target the Makefile does not define, or names a command
// under cmd/ that does not exist.
func TestDocsNameLiveTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	for _, doc := range liveDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		// Backticked text: fenced blocks, then the inline spans between them.
		code := fencedBlock.FindAllString(text, -1)
		code = append(code, codeSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1)...)
		for _, span := range code {
			for _, m := range makeInvocation.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: %q names make target %q, which the Makefile does not define", doc, strings.Join(strings.Fields(span), " "), m[1])
				}
			}
		}
		for _, m := range cmdPath.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s: names %s, which is not a directory", doc, m[0])
			}
		}
	}
}
