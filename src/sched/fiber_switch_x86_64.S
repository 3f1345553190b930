// Register-only fiber switch for x86-64 System V (Linux).  Assembled on
// every target; empty except on the one where fibersSupported() is true.
//
// void confail_fiber_switch(void** saveSp /* rdi */, void* loadSp /* rsi */)
//
// Saves the caller's callee-saved state on its own stack, stores the
// resulting stack pointer through saveSp, adopts loadSp and pops the state
// a previous switch (or the initial frame built in virtual_scheduler.cpp)
// left there.  The state is exactly what the ABI obliges a callee to
// preserve: rbx, rbp, r12-r15, the MXCSR control/status word and the x87
// control word.  Everything else is caller-saved, so the C++ caller has
// already spilled whatever it still needs.  There is no signal-mask
// syscall, unlike glibc's context switch: logical threads never change it.
//
// Both sides of the switch use this one frame layout, so the CFA offset
// stays valid across the stack-pointer swap.  Frame at the saved stack
// pointer, lowest address first:
//   +0  MXCSR (4 bytes), +4  x87 control word (2 bytes), +6  padding
//   +8  r15   +16 r14   +24 r13   +32 r12   +40 rbx   +48 rbp
//   +56 return address
//
// No .note.gnu.property is emitted on purpose: the `ret` into another
// stack is not shadow-stack (CET) compatible, and an object without the
// note keeps the linked program from opting into CET.

#if defined(__linux__) && defined(__x86_64__)

        .text
        .globl  confail_fiber_switch
        .type   confail_fiber_switch, @function
        .p2align 4
confail_fiber_switch:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        subq    $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq    %r15
        .cfi_adjust_cfa_offset -8
        popq    %r14
        .cfi_adjust_cfa_offset -8
        popq    %r13
        .cfi_adjust_cfa_offset -8
        popq    %r12
        .cfi_adjust_cfa_offset -8
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        ret
        .cfi_endproc
        .size   confail_fiber_switch, .-confail_fiber_switch

// std::uint64_t confail_fiber_fp_control()
//
// The caller's floating-point control slot in the frame layout above
// (MXCSR in the low 32 bits, x87 control word in bits 32-47), so a new
// fiber starts with its spawner's rounding and exception-mask settings,
// as a new POSIX thread does.  Uses the red zone; calls nothing.
        .globl  confail_fiber_fp_control
        .type   confail_fiber_fp_control, @function
        .p2align 4
confail_fiber_fp_control:
        .cfi_startproc
        movq    $0, -8(%rsp)
        stmxcsr -8(%rsp)
        fnstcw  -4(%rsp)
        movq    -8(%rsp), %rax
        ret
        .cfi_endproc
        .size   confail_fiber_fp_control, .-confail_fiber_fp_control

#endif

#if defined(__linux__) && defined(__ELF__)
        .section .note.GNU-stack, "", %progbits
#endif
