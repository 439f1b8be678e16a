package dnswire

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    Name
		wantErr bool
	}{
		{name: "empty is root", in: "", want: Root},
		{name: "dot is root", in: ".", want: Root},
		{name: "adds trailing dot", in: "example.com", want: "example.com."},
		{name: "keeps trailing dot", in: "example.com.", want: "example.com."},
		{name: "lowercases", in: "ExAmPle.COM.", want: "example.com."},
		{name: "single label", in: "edu", want: "edu."},
		{name: "deep name", in: "a.b.c.d.e.f.g", want: "a.b.c.d.e.f.g."},
		{name: "empty label", in: "a..b", wantErr: true},
		{name: "leading dot", in: ".a.b", wantErr: true},
		{name: "label too long", in: strings.Repeat("x", 64) + ".com", wantErr: true},
		{name: "label at limit ok", in: strings.Repeat("x", 63) + ".com", want: Name(strings.Repeat("x", 63) + ".com.")},
		{
			name:    "name too long",
			in:      strings.Repeat(strings.Repeat("a", 63)+".", 4) + "b",
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := CanonicalName(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("CanonicalName(%q) = %q, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("CanonicalName(%q): %v", tt.in, err)
			}
			if got != tt.want {
				t.Errorf("CanonicalName(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestNameParent(t *testing.T) {
	tests := []struct {
		in   Name
		want Name
	}{
		{Root, Root},
		{"com.", Root},
		{"example.com.", "com."},
		{"www.example.com.", "example.com."},
		{"a.b.c.d.", "b.c.d."},
	}
	for _, tt := range tests {
		if got := tt.in.Parent(); got != tt.want {
			t.Errorf("%q.Parent() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestNameLabels(t *testing.T) {
	if got := Root.Labels(); got != nil {
		t.Errorf("Root.Labels() = %v, want nil", got)
	}
	got := MustName("www.example.com").Labels()
	want := []string{"www", "example", "com"}
	if len(got) != len(want) {
		t.Fatalf("Labels() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Labels()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if n := MustName("www.example.com").LabelCount(); n != 3 {
		t.Errorf("LabelCount() = %d, want 3", n)
	}
	if n := Root.LabelCount(); n != 0 {
		t.Errorf("Root.LabelCount() = %d, want 0", n)
	}
}

func TestNameIsSubdomainOf(t *testing.T) {
	tests := []struct {
		n, ancestor Name
		want        bool
	}{
		{"www.example.com.", Root, true},
		{"www.example.com.", "com.", true},
		{"www.example.com.", "example.com.", true},
		{"www.example.com.", "www.example.com.", true},
		{"example.com.", "www.example.com.", false},
		{"badexample.com.", "example.com.", false},
		{"com.", "org.", false},
		{Root, Root, true},
		{Root, "com.", false},
	}
	for _, tt := range tests {
		if got := tt.n.IsSubdomainOf(tt.ancestor); got != tt.want {
			t.Errorf("%q.IsSubdomainOf(%q) = %v, want %v", tt.n, tt.ancestor, got, tt.want)
		}
	}
}

func TestNameChild(t *testing.T) {
	got, err := Root.Child("com")
	if err != nil || got != "com." {
		t.Errorf("Root.Child(com) = %q, %v; want com.", got, err)
	}
	got, err = MustName("example.com").Child("www")
	if err != nil || got != "www.example.com." {
		t.Errorf("Child(www) = %q, %v; want www.example.com.", got, err)
	}
	if _, err := Root.Child(""); err == nil {
		t.Error("Child(\"\") succeeded, want error")
	}
}

func TestNameAncestors(t *testing.T) {
	got := MustName("www.example.com").Ancestors()
	want := []Name{"www.example.com.", "example.com.", "com.", Root}
	if len(got) != len(want) {
		t.Fatalf("Ancestors() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ancestors()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// randomName builds a random valid canonical name for property tests.
func randomName(r *rand.Rand) Name {
	depth := 1 + r.Intn(5)
	labels := make([]string, depth)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	for i := range labels {
		n := 1 + r.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet)-1)] // avoid '-' heavy names
		}
		labels[i] = string(b)
	}
	return MustName(strings.Join(labels, "."))
}

func TestPropertyParentIsAncestor(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		return n.IsSubdomainOf(n.Parent()) && n.Parent().LabelCount() == n.LabelCount()-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAncestorsChainByParent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		anc := n.Ancestors()
		for i := 0; i < len(anc)-1; i++ {
			if anc[i].Parent() != anc[i+1] {
				return false
			}
		}
		return anc[len(anc)-1] == Root
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
