package pathmatrix

import (
	"testing"

	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

const widenSrc = `
type L [X] {
    int data;
    L *next is uniquely forward along X;
};
type T [down] {
    int data;
    T *left, *right is uniquely forward along down;
};
void f(L *a, T *s, L *b, int n) {
    L *p;
    T *u, *v;
    p = a;
    u = s;
    v = s->left;
    while (p != NULL) {
        p = p->next;
    }
}
`

// TestWidenedState pins the terminal conservative state over the three
// variable sets a fixpoint runs on — a function run's pointer variables, a
// summary run's shadow formals and an iteration run's loop shadows — for a
// function with two record types. Each want string is the rendering of the
// per-run-kind builder the single widened replaced.
func TestWidenedState(t *testing.T) {
	info := types.MustCheck(parser.MustParse(widenSrc))
	g := norm.Build(info.Func("f"), info.Env)
	plain := g.PointerVars()
	loop := append([]string(nil), plain...)
	for _, v := range plain {
		loop = append(loop, v+Shadow)
	}
	for _, tc := range []struct {
		name string
		vars []string
		want string
	}{
		{"pointer-vars", plain, `        | a      | s      | b      | p      | u      | v      |
 a      | =      |        | ??     | ??     |        |        |
 s      |        | =      |        |        | ??     | ??     |
 b      | ??     |        | =      | ??     |        |        |
 p      | ??     |        | ??     | =      |        |        |
 u      |        | ??     |        |        | =      | ??     |
 v      |        | ??     |        |        | ??     | =      |
violations: !widened()
`},
		{"shadow-formals", shadowFormalVars(g), `        | a      | s      | b      | p      | u      | v      | a'     | s'     | b'     |
 a      | =      |        | ??     | ??     |        |        | ??     |        | ??     |
 s      |        | =      |        |        | ??     | ??     |        | ??     |        |
 b      | ??     |        | =      | ??     |        |        | ??     |        | ??     |
 p      | ??     |        | ??     | =      |        |        | ??     |        | ??     |
 u      |        | ??     |        |        | =      | ??     |        | ??     |        |
 v      |        | ??     |        |        | ??     | =      |        | ??     |        |
 a'     | ??     |        | ??     | ??     |        |        | =      |        | ??     |
 s'     |        | ??     |        |        | ??     | ??     |        | =      |        |
 b'     | ??     |        | ??     | ??     |        |        | ??     |        | =      |
violations: !widened()
`},
		{"loop-shadows", loop, `        | a      | s      | b      | p      | u      | v      | a'     | s'     | b'     | p'     | u'     | v'     |
 a      | =      |        | ??     | ??     |        |        | ??     |        | ??     | ??     |        |        |
 s      |        | =      |        |        | ??     | ??     |        | ??     |        |        | ??     | ??     |
 b      | ??     |        | =      | ??     |        |        | ??     |        | ??     | ??     |        |        |
 p      | ??     |        | ??     | =      |        |        | ??     |        | ??     | ??     |        |        |
 u      |        | ??     |        |        | =      | ??     |        | ??     |        |        | ??     | ??     |
 v      |        | ??     |        |        | ??     | =      |        | ??     |        |        | ??     | ??     |
 a'     | ??     |        | ??     | ??     |        |        | =      |        | ??     | ??     |        |        |
 s'     |        | ??     |        |        | ??     | ??     |        | =      |        |        | ??     | ??     |
 b'     | ??     |        | ??     | ??     |        |        | ??     |        | =      | ??     |        |        |
 p'     | ??     |        | ??     | ??     |        |        | ??     |        | ??     | =      |        |        |
 u'     |        | ??     |        |        | ??     | ??     |        | ??     |        |        | =      | ??     |
 v'     |        | ??     |        |        | ??     | ??     |        | ??     |        |        | ??     | =      |
violations: !widened()
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := widened(newVarIndex(tc.vars), recordsOf(g), newEntryTable()).String(); got != tc.want {
				t.Errorf("widened state drifted:\ngot:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
