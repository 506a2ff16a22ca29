(** Call normalization (A-normal form for calls).

    After this pass, every [Call] appears only as the immediate right-hand
    side of a [Let]/[Assign] or as a standalone [Expr], and every call
    argument is simple (a constant, variable, or global address).  The code
    generator relies on this: at a call site the expression scratch stack
    is empty and arguments can be moved straight into r0-r3.

    Hoisting keeps {!Pf_kir.Eval}'s left-to-right order: when a call is
    hoisted out of a right operand (of a binary operator or comparison, a
    store's value, a for loop's upper bound), a left operand that reads
    memory is hoisted into a temp ahead of it, so the read still sees
    memory from before the call's stores. *)

val program : Pf_kir.Ast.program -> Pf_kir.Ast.program
