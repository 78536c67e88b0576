package gemini

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMarkdownLinks validates the repo's Markdown cross-references offline:
// every relative link in the top-level documents and under docs/ must point
// at an existing file or directory, and every fragment, on a link to another
// document or an in-file `#section`, must match a heading's GitHub-style
// anchor in the target document. External http(s) and mailto links are not fetched, so
// the test cannot flake on the network.
func TestMarkdownLinks(t *testing.T) {
	files := []string{"README.md", "PAPER.md", "ROADMAP.md", "CHANGES.md"}
	err := filepath.WalkDir("docs", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		lines, err := readLines(file)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range linkPattern.FindAllStringSubmatch(line, -1) {
				if msg := checkLink(file, m[1]); msg != "" {
					t.Errorf("%s:%d: %s", file, i+1, msg)
				}
			}
		}
	}
}

// linkPattern matches inline Markdown links [text](target); images share
// the shape with a leading bang.
var linkPattern = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkLink validates one link target of file; "" means the link is fine.
func checkLink(file, target string) string {
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"):
		return "" // external: not checked offline
	case strings.HasPrefix(target, "#"):
		if !hasAnchor(file, target[1:]) {
			return fmt.Sprintf("broken anchor %q (no matching heading)", target)
		}
		return ""
	}
	path, frag, _ := strings.Cut(target, "#")
	resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(path))
	fi, err := os.Stat(resolved)
	switch {
	case err != nil:
		return fmt.Sprintf("broken link %q (%s does not exist)", target, resolved)
	case frag == "":
		return ""
	case fi.IsDir() || !strings.HasSuffix(resolved, ".md"):
		return fmt.Sprintf("fragment on non-Markdown target %q", target)
	case !hasAnchor(resolved, frag):
		return fmt.Sprintf("broken anchor %q (no matching heading in %s)", target, resolved)
	}
	return ""
}

// hasAnchor reports whether a Markdown file has a heading, outside code
// fences, whose GitHub-style anchor equals frag.
func hasAnchor(file, frag string) bool {
	lines, _ := readLines(file)
	fenced := false
	for _, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced && strings.HasPrefix(line, "#") && anchorFor(strings.TrimLeft(line, "#")) == strings.ToLower(frag) {
			return true
		}
	}
	return false
}

// anchorFor approximates GitHub's heading-to-anchor slug: lowercase, code
// ticks stripped, punctuation dropped, spaces to hyphens.
func anchorFor(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteRune('-')
		}
	}
	return b.String()
}

func readLines(file string) ([]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}
