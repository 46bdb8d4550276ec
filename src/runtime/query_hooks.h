// The DBMS layer of a ring node (paper §4.1): one admitted query runs its
// DC-optimized MAL plan, whose datacyclotron.request/pin/unpin calls go to
// the node's protocol state and whose pins resolve through the write log at
// the query's snapshot; sql.wappend/wcommit/wdelete commit to the log.
#pragma once

#include "runtime/session.h"

namespace dcy::runtime {

class RingNode;

/// Runs one admitted query on `node` (called by the node's query runners).
Result<QueryResult> RunQuery(RingNode* node, const PreparedQuery& plan,
                             internal::QueryState* state, const SubmitOptions& options);

}  // namespace dcy::runtime
