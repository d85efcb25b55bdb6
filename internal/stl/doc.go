// Package stl implements §5 of Wang & Li (ICDE 1988): the System Throughput
// Loss cost function used to select the most profitable concurrency control
// protocol per transaction.
//
// STL'(λloss, U) is the expected throughput loss over a period of U seconds
// that starts with throughput loss λloss and accretes additional loss
// whenever a new lock grant blocks a data queue. It satisfies the renewal
// equation (with the no-blocking case and the first-block decomposition the
// paper describes in prose):
//
//	STL'(λ, U) = e^(−λb·U)·λ·U
//	           + ∫₀ᵁ λb·e^(−λb·x)·(λ·x + STL'(λ+λnew, U−x)) dx
//	STL'(λ, U) = λA·U                     when λ ≥ λA (everything is lost)
//
// with
//
//	λb   = (λA − λ)·(1 − (1 − λ/λA)^(K−1))   — rate of blocking grants
//	λnew = λw + (1−Qr)·λr                    — mean loss added per block
//
// (The proceedings scan garbles the first term of the printed recurrence.
// The form above matches the paper's two prose cases exactly.)
//
// Evaluate solves the recursion by dynamic programming over the loss ladder
// λ, λ+λnew, λ+2λnew, … (capped at λA) and a uniform time grid, exactly the
// "evaluated efficiently through Dynamic Programming techniques [7]"
// strategy the paper prescribes.
package stl
