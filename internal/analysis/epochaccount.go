package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// EpochAccount protects the per-epoch observation counters that
// hotness ranks are computed from. Writes to core.PageStat's
// Abit/Trace/Write/Dev/True fields and to mem.PageDescriptor's five
// epoch counters and TrueTotal are legal only inside the sanctioned
// accumulation paths — the profiler arms (abit scan, trace drain in
// core, PML drain, device-tracker fold, the machine's ground-truth
// charge in cpu), the mem package's own allocation/reset bookkeeping,
// and the policy package's migration counter transfer. The same holds
// for the descriptor methods that write those counters (ResetEpoch,
// and CopyProfile, the one helper that clears a claimed frame's
// evidence or moves it with a page), whether called directly or taken
// as a method value or method expression. Anywhere else, a counter
// write is rank corruption: evidence the profiler never collected.
var EpochAccount = &Analyzer{
	Name: "epochaccount",
	Doc:  "restricts PageStat/PageDescriptor counter writes to sanctioned accumulation paths",
	Run:  runEpochAccount,
}

// epochProtectedFields maps protected struct type names to their
// protected field sets.
var epochProtectedFields = map[string]map[string]bool{
	"PageStat": {
		"Abit": true, "Trace": true, "Write": true, "Dev": true, "True": true,
	},
	"PageDescriptor": {
		"AbitEpoch": true, "TraceEpoch": true, "WriteEpoch": true, "DevEpoch": true, "TrueEpoch": true,
		"TrueTotal": true,
	},
}

// epochWriterMethods are the PageDescriptor methods that write its
// protected counters: calling one is a counter write.
var epochWriterMethods = map[string]bool{
	"ResetEpoch":  true, // harvest: fold TrueEpoch, zero the epoch
	"CopyProfile": true, // claim clears; migrate/collapse/adopt copy
}

// epochSanctionedPaths are the import-path suffixes allowed to write
// the protected counters.
var epochSanctionedPaths = []string{
	"internal/abit",    // A-bit scan accumulation
	"internal/core",    // trace-sample drain + harvest snapshot
	"internal/cpu",     // ground-truth charge per executed reference
	"internal/devprof", // device-tracker fold into DevEpoch
	"internal/mem",     // descriptor allocation, epoch reset, CopyProfile
	"internal/pml",     // write-log drain
	"internal/policy",  // migration moves counters with the page
}

func runEpochAccount(pass *Pass) {
	for _, suffix := range epochSanctionedPaths {
		if strings.HasSuffix(pass.Path(), suffix) {
			return
		}
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkEpochWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkEpochWrite(pass, st.X)
			case *ast.SelectorExpr:
				// pd.ResetEpoch() and f := pd.ResetEpoch alike;
				// (*PageDescriptor).CopyProfile is a MethodExpr.
				checkEpochMethod(pass, st)
			case *ast.UnaryExpr:
				// &pd.TraceEpoch escapes the counter for arbitrary
				// later writes.
				if st.Op.String() == "&" {
					checkEpochWrite(pass, st.X)
				}
			}
			return true
		})
	}
}

// checkEpochWrite reports when expr writes a protected counter field.
func checkEpochWrite(pass *Pass, expr ast.Expr) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name, ok := epochSelection(pass, sel, types.FieldVal)
	if !ok || !epochProtectedFields[name][sel.Sel.Name] {
		return
	}
	pass.Reportf(sel.Pos(), "write to %s.%s outside sanctioned accumulation paths: epoch counters may only be produced by the profiler arms (abit/core/cpu/devprof/mem/pml/policy)", name, sel.Sel.Name)
}

// checkEpochMethod reports a selection of a descriptor method that
// writes the protected counters: a call, a method value or a method
// expression.
func checkEpochMethod(pass *Pass, sel *ast.SelectorExpr) {
	if !epochWriterMethods[sel.Sel.Name] {
		return
	}
	if name, ok := epochSelection(pass, sel, types.MethodVal, types.MethodExpr); !ok || name != "PageDescriptor" {
		return
	}
	pass.Reportf(sel.Pos(), "use of PageDescriptor.%s outside sanctioned accumulation paths: it writes the epoch counters, which only the profiler arms (abit/core/cpu/devprof/mem/pml/policy) may produce", sel.Sel.Name)
}

// epochSelection returns the name of the protected struct type sel
// selects a field or method of (one of kinds), looking through a
// pointer receiver.
func epochSelection(pass *Pass, sel *ast.SelectorExpr, kinds ...types.SelectionKind) (string, bool) {
	selection, ok := pass.Types().Selections[sel]
	if !ok || !slices.Contains(kinds, selection.Kind()) {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	_, protected := epochProtectedFields[named.Obj().Name()]
	return named.Obj().Name(), protected
}
