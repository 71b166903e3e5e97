// Package hybrid combines the RLC index with online traversal to evaluate
// the extended reachability queries of Section VI-C — constraints such as
// Q4 = a+ ∘ b+ that concatenate several Kleene-plus segments. The paper
// evaluates these "in combination with an online traversal to continuously
// check whether intermediately visited vertices can satisfy the path
// constraint": the leading segments are expanded online, and the final
// segment is answered by index lookups from each frontier vertex, which is
// where the index's speed-up comes from. Every online step — segment
// closures, the streamed penultimate segment, and the BiBFS fallback for
// constraints outside the index's class — runs on the traversal package's
// one product-search kernel.
package hybrid
